#include "fl/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/hash.h"

namespace signguard::fl {
namespace {

constexpr char kMagic[4] = {'S', 'G', 'C', 'K'};
constexpr std::uint32_t kVersion = 2;  // see checkpoint.h on version 1
constexpr std::size_t kHeaderSize = 24;

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("checkpoint: " + what + " (" + path + ")");
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           std::string_view payload) {
  common::ByteWriter header;
  header.raw(kMagic, sizeof kMagic);
  header.u32(kVersion);
  header.u64(payload.size());
  header.u64(common::xxh64(payload.data(), payload.size()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail("cannot open temp file for writing", tmp);
  const bool wrote =
      std::fwrite(header.bytes().data(), 1, header.bytes().size(), f) ==
          header.bytes().size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  // Durability before visibility: the bytes must be on disk before the
  // rename publishes them, or a crash could expose a valid-looking but
  // empty file.
  const bool synced = wrote && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!synced) {
    std::remove(tmp.c_str());
    fail("short write", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("rename failed", path);
  }
}

std::string read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail("cannot open", path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) fail("read error", path);

  if (bytes.size() < kHeaderSize) fail("truncated header", path);
  common::ByteReader r(bytes);
  char magic[4];
  r.raw(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) fail("bad magic", path);
  if (r.u32() != kVersion) fail("unsupported format version", path);
  const std::uint64_t len = r.u64();
  const std::uint64_t sum = r.u64();
  if (len != bytes.size() - kHeaderSize) fail("payload length mismatch", path);
  std::string payload = bytes.substr(kHeaderSize);
  if (common::xxh64(payload.data(), payload.size()) != sum)
    fail("checksum mismatch", path);
  return payload;
}

bool checkpoint_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace signguard::fl

#pragma once
// Tiny byte-oriented serialization used by the crash-consistent trainer
// checkpoints (fl/checkpoint.h) and the stateful-component snapshots
// (Aggregator/Attack serialize_state). Deliberately minimal: explicit
// little-endian fixed-width integers, raw IEEE-754 floats (the in-memory
// representation on every supported target), length-prefixed strings.
// A checkpoint is consumed by the same build that wrote it, so no
// cross-architecture byte swapping is attempted — the format is pinned
// by a header checksum, not by portability machinery.
//
// ByteReader is total on hostile bytes: every read is bounds-checked and
// underflow throws std::runtime_error (a truncated or corrupted
// checkpoint must fail loudly, never read out of bounds).

#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace signguard::common {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void floats(std::span<const float> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(float));
  }
  void doubles(std::span<const double> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void raw(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t len = length(1);
    std::string out(len, '\0');
    raw(out.data(), len);
    return out;
  }
  std::vector<float> floats() {
    const std::uint64_t len = length(sizeof(float));
    std::vector<float> out(len);
    raw(out.data(), len * sizeof(float));
    return out;
  }
  std::vector<double> doubles() {
    const std::uint64_t len = length(sizeof(double));
    std::vector<double> out(len);
    raw(out.data(), len * sizeof(double));
    return out;
  }
  void raw(void* out, std::size_t len) {
    need(len);
    if (len == 0) return;  // `out` may be null (an empty vector's data())
    std::memcpy(out, bytes_.data() + pos_, len);
    pos_ += len;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  // A length prefix bounded by the remaining bytes: a corrupted prefix
  // must not turn into a multi-gigabyte allocation before the bounds
  // check fires.
  std::uint64_t length(std::size_t elem_size) {
    const std::uint64_t len = u64();
    if (elem_size != 0 && len > remaining() / elem_size)
      throw std::runtime_error("serial: length prefix exceeds buffer");
    return len;
  }
  void need(std::size_t len) const {
    if (bytes_.size() - pos_ < len)
      throw std::runtime_error("serial: read past end of buffer");
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Direction-agnostic field codec over a ByteWriter or a ByteReader: one
// field list drives both a save and a load, so the two cannot drift
// apart. Each field is written when saving and overwritten when loading,
// in call order: unsigned integers as u64, bools and enums as u8, doubles
// as f64, an optional<double> as a presence byte plus the value. A
// component with serialize_state/restore_state nests inline, one with a
// string state()/set_state() (Rng) as a length-prefixed string.
class ByteIo {
 public:
  explicit ByteIo(ByteWriter& w) : w_(&w) {}
  explicit ByteIo(ByteReader& r) : r_(&r) {}
  bool saving() const { return w_ != nullptr; }
  ByteWriter& writer() { return *w_; }  // saving only
  ByteReader& reader() { return *r_; }  // loading only

  template <class... T>
  void operator()(T&... fields) {
    (field(fields), ...);
  }

  // A component's serialize_state/restore_state, nested as a
  // length-prefixed blob.
  template <class T>
  void blob(T& component) {
    if (w_ != nullptr) {
      ByteWriter b;
      component.serialize_state(b);
      w_->str(b.bytes());
    } else {
      const std::string bytes = r_->str();
      ByteReader b(bytes);
      component.restore_state(b);
    }
  }

 private:
  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  void field(T& v) {
    if (w_ != nullptr) w_->u64(v);
    else v = static_cast<T>(r_->u64());
  }
  template <class T>
    requires std::is_enum_v<T> || std::same_as<T, bool>
  void field(T& v) {
    if (w_ != nullptr) w_->u8(static_cast<std::uint8_t>(v));
    else v = static_cast<T>(r_->u8());
  }
  void field(double& v) {
    if (w_ != nullptr) w_->f64(v);
    else v = r_->f64();
  }
  void field(std::optional<double>& v) {
    bool has = v.has_value();
    field(has);
    double x = v.value_or(0.0);
    if (has) field(x);
    v = has ? std::optional<double>(x) : std::nullopt;
  }
  template <class T>
    requires requires(T& t, ByteWriter& w, ByteReader& r) {
      t.serialize_state(w);
      t.restore_state(r);
    }
  void field(T& component) {
    if (w_ != nullptr) component.serialize_state(*w_);
    else component.restore_state(*r_);
  }
  template <class T>
    requires requires(T& t) { t.set_state(t.state()); }
  void field(T& component) {
    if (w_ != nullptr) w_->str(component.state());
    else component.set_state(r_->str());
  }

  ByteWriter* w_ = nullptr;
  ByteReader* r_ = nullptr;
};

}  // namespace signguard::common

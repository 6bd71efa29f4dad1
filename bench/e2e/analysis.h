#pragma once
// Pure arithmetic behind the reported metrics: order statistics, stage
// self times, unattributed round time, metric-name validation and the
// JSON form of a metric set. The self-test pins each of them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace signguard::e2e {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Number of samples that must lie beyond a reported tail value.
inline constexpr std::size_t kTailBeyond = 10;

// The tail statistic: the (kTailBeyond + 1)-th largest sample, i.e. the
// highest percentile that still has ten samples beyond it. Falls back to
// the maximum when there are fewer samples.
inline double tail_value(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), std::greater<>());
  return v.size() > kTailBeyond ? v[kTailBeyond] : v.front();
}

// Stage nesting of the trainer's StageScopes: the filter scope opens
// inside SignGuard's aggregate() and the shard-merge scope inside
// ShardedAggregator::aggregate(), both under the trainer's aggregate
// scope. stage_ms is inclusive, so the aggregate stage's self time is
// its total minus those two.
inline bool nested_in_aggregate(obs::Stage s) {
  return s == obs::Stage::kFilter || s == obs::Stage::kMerge;
}

inline double self_ms(const obs::RoundCost& c, obs::Stage s) {
  const auto ms = [&](obs::Stage t) { return c.stage_ms[std::size_t(t)]; };
  if (s != obs::Stage::kAggregate) return ms(s);
  return ms(s) - ms(obs::Stage::kFilter) - ms(obs::Stage::kMerge);
}

// Sum of the top-level stage times (= sum of every stage's self time).
inline double attributed_ms(const obs::RoundCost& c) {
  double sum = 0.0;
  for (std::size_t s = 0; s < obs::kNumStages; ++s)
    if (!nested_in_aggregate(obs::Stage(s))) sum += c.stage_ms[s];
  return sum;
}

// Round wall time no stage claims.
inline double unattributed_ms(double round_wall_ms, const obs::RoundCost& c) {
  return round_wall_ms - attributed_ms(c);
}

// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char ch = name[i];
    const bool alnum = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                       (ch >= '0' && ch <= '9');
    if (!alnum && (i == 0 || (ch != '_' && ch != '.' && ch != '-')))
      return false;
  }
  return true;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// {"name": {"value": v, "unit": "u"}, ...}. Values print with 17
// significant digits, so parse_metrics_json reads back the same doubles.
// Names and units come from this program, so they need no escaping;
// both are validated here.
inline std::string metrics_json(const Metrics& ms) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, m] : ms) {
    if (!valid_metric_name(name) || !std::isfinite(m.value))
      throw std::invalid_argument("unreportable metric: " + name);
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

// Inverse of metrics_json (accepts exactly what it emits, plus spaces).
inline Metrics parse_metrics_json(std::string_view s) {
  std::size_t i = 0;
  const auto fail = [&] {
    throw std::invalid_argument("bad metrics JSON at offset " +
                                std::to_string(i));
  };
  const auto skip = [&] {
    while (i < s.size() && s[i] == ' ') ++i;
  };
  const auto expect = [&](char ch) {
    skip();
    if (i >= s.size() || s[i] != ch) fail();
    ++i;
  };
  const auto str = [&] {
    expect('"');
    const std::size_t end = s.find('"', i);
    if (end == std::string_view::npos) fail();
    std::string v(s.substr(i, end - i));
    i = end + 1;
    return v;
  };
  Metrics out;
  expect('{');
  skip();
  if (i < s.size() && s[i] == '}') return out;
  for (;;) {
    const std::string name = str();
    expect(':');
    expect('{');
    if (str() != "value") fail();
    expect(':');
    skip();
    const std::string rest(s.substr(i, 40));
    char* end = nullptr;
    const double v = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) fail();
    i += std::size_t(end - rest.c_str());
    expect(',');
    if (str() != "unit") fail();
    expect(':');
    out[name] = Metric{v, str()};
    expect('}');
    skip();
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    expect('}');
    return out;
  }
}

}  // namespace signguard::e2e

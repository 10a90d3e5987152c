#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace epgbench {

ProcStatus read_proc_status() {
  ProcStatus st;
  std::ifstream in("/proc/self/status");
  std::string line;
  auto field = [&](std::string_view name, std::uint64_t& out) {
    if (line.rfind(name, 0) != 0) return;
    std::istringstream is(line.substr(name.size()));
    is >> out;
  };
  while (std::getline(in, line)) {
    field("VmPeak:", st.vm_peak_kb);
    field("VmSize:", st.vm_size_kb);
    field("VmHWM:", st.vm_hwm_kb);
  }
  return st;
}

namespace {

/// SplitMix64 finalizer: decorrelates consecutive workload seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t kronecker_seed(std::uint64_t seed) { return mix(seed) >> 1; }
std::uint64_t root_seed(std::uint64_t seed) { return mix(seed ^ 0x5EEDull); }

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ",";
  body_ += json_quote(k) + ":";
}

void JsonObject::number(std::string_view k, double v) {
  key(k);
  body_ += json_number(v);
}

void JsonObject::integer(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonObject::numbers(std::string_view k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ",";
    body_ += json_number(v[i]);
  }
  body_ += "]";
}

void JsonObject::strings(std::string_view k,
                         const std::vector<std::string>& v) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ",";
    body_ += json_quote(v[i]);
  }
  body_ += "]";
}

void JsonObject::object(std::string_view k, const JsonObject& v) {
  key(k);
  body_ += v.str();
}

void JsonObject::numbers_map(std::string_view k,
                             const std::map<std::string, double>& v) {
  JsonObject o;
  for (const auto& [name, value] : v) o.number(name, value);
  object(k, o);
}

std::vector<std::string> split_list(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? s.size() : comma;
    if (end > start) out.emplace_back(s.substr(start, end - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace epgbench

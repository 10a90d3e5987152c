// Shared pieces of the benchmark driver: clocks, /proc/self/status
// accounting, a small JSON writer, the seed derivation, and the
// outcome tally every workload reports through.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace epgbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// VmPeak / VmSize / VmHWM of this process, in KiB (0 when unreadable).
struct ProcStatus {
  std::uint64_t vm_peak_kb = 0;
  std::uint64_t vm_size_kb = 0;
  std::uint64_t vm_hwm_kb = 0;
};
[[nodiscard]] ProcStatus read_proc_status();

/// The workload seed drives every generated input; the program only ever
/// sees the derived values.
[[nodiscard]] std::uint64_t kronecker_seed(std::uint64_t seed);
[[nodiscard]] std::uint64_t root_seed(std::uint64_t seed);

/// Operations attempted and failed, with a note per failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
};

/// Flat JSON object writer: numbers print with all 17 significant digits.
class JsonObject {
 public:
  void number(std::string_view key, double v);
  void integer(std::string_view key, std::uint64_t v);
  void numbers(std::string_view key, const std::vector<double>& v);
  void strings(std::string_view key, const std::vector<std::string>& v);
  void object(std::string_view key, const JsonObject& v);
  void numbers_map(std::string_view key,
                   const std::map<std::string, double>& v);

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

[[nodiscard]] std::string json_quote(std::string_view s);
[[nodiscard]] std::string json_number(double v);

/// Split "a,b,c" into its parts.
[[nodiscard]] std::vector<std::string> split_list(std::string_view s);

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace epgbench

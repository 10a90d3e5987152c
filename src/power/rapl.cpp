#include "power/rapl.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/error.hpp"
#include "core/text_scan.hpp"

namespace epgs::power {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Read an integer microjoule counter file; returns joules, or -1 on
/// failure.
double read_energy_uj(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  const auto uj = text::try_parse<std::uint64_t>(line);
  return uj ? static_cast<double>(*uj) * 1e-6 : -1.0;
}

struct RaplZones {
  std::string package;
  std::string dram;
};

RaplZones find_zones(const std::string& root) {
  namespace fs = std::filesystem;
  RaplZones z;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const auto name_file = entry.path() / "name";
    std::ifstream in(name_file);
    if (!in.good()) continue;
    std::string zone_name;
    std::getline(in, zone_name);
    const auto energy = (entry.path() / "energy_uj").string();
    if (zone_name.rfind("package", 0) == 0 && z.package.empty()) {
      if (read_energy_uj(energy) >= 0) z.package = energy;
      // DRAM is a subzone of the package.
      std::error_code sub_ec;
      for (const auto& sub : fs::directory_iterator(entry.path(), sub_ec)) {
        std::ifstream sub_in(sub.path() / "name");
        if (!sub_in.good()) continue;
        std::string sub_name;
        std::getline(sub_in, sub_name);
        if (sub_name == "dram") {
          const auto sub_energy = (sub.path() / "energy_uj").string();
          if (read_energy_uj(sub_energy) >= 0) z.dram = sub_energy;
        }
      }
    }
  }
  return z;
}

}  // namespace

PowercapBackend::PowercapBackend(std::string sysfs_root) {
  const auto zones = find_zones(sysfs_root);
  EPGS_CHECK(!zones.package.empty(),
             "no readable RAPL package zone under " + sysfs_root);
  package_path_ = zones.package;
  dram_path_ = zones.dram;
}

double PowercapBackend::cpu_energy_j() {
  const double j = read_energy_uj(package_path_);
  EPGS_CHECK(j >= 0.0, "RAPL package counter became unreadable");
  return j;
}

double PowercapBackend::ram_energy_j() {
  if (dram_path_.empty()) return 0.0;
  const double j = read_energy_uj(dram_path_);
  return j >= 0.0 ? j : 0.0;
}

bool PowercapBackend::available(const std::string& sysfs_root) {
  return !find_zones(sysfs_root).package.empty();
}

ModelBackend::ModelBackend(MachineModel machine)
    : machine_(machine), t0_(now_seconds()) {}

double ModelBackend::cpu_energy_j() {
  return machine_.cpu_idle_w * (now_seconds() - t0_);
}

double ModelBackend::ram_energy_j() {
  return machine_.ram_idle_w * (now_seconds() - t0_);
}

std::unique_ptr<EnergyBackend> make_default_backend() {
  if (PowercapBackend::available()) {
    return std::make_unique<PowercapBackend>();
  }
  return std::make_unique<ModelBackend>();
}

}  // namespace epgs::power

namespace {
// Default backend shared by all power_rapl_t handles that were init'ed
// without one (mirrors the original library's global PAPI event set).
epgs::power::EnergyBackend& default_backend() {
  static auto backend = epgs::power::make_default_backend();
  return *backend;
}
}  // namespace

void power_rapl_init(power_rapl_t* ps) {
  *ps = power_rapl_t{};
  ps->backend = &default_backend();
}

void power_rapl_start(power_rapl_t* ps) {
  ps->cpu_j_start = ps->backend->cpu_energy_j();
  ps->ram_j_start = ps->backend->ram_energy_j();
  ps->wall_start = std::chrono::duration<double>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
}

void power_rapl_end(power_rapl_t* ps) {
  ps->cpu_j = ps->backend->cpu_energy_j() - ps->cpu_j_start;
  ps->ram_j = ps->backend->ram_energy_j() - ps->ram_j_start;
  ps->seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count() -
                ps->wall_start;
}

void power_rapl_print(const power_rapl_t* ps) {
  std::printf("PACKAGE_ENERGY: %.6f J over %.6f s (%.2f W avg)\n", ps->cpu_j,
              ps->seconds, ps->seconds > 0 ? ps->cpu_j / ps->seconds : 0.0);
  std::printf("DRAM_ENERGY:    %.6f J over %.6f s (%.2f W avg)\n", ps->ram_j,
              ps->seconds, ps->seconds > 0 ? ps->ram_j / ps->seconds : 0.0);
}

#include "core/phase_log.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/text_scan.hpp"

namespace epgs {
namespace {

constexpr std::string_view kCtx = "PhaseLog";

// Log line grammar (one phase per line):
//   * <name>: <seconds> sec [edges=N] [vupdates=N] [bytes=N] [k=v]...
// Attribute lines:
//   # <key> = <value>
// Per-iteration timeline lines (continuations of the preceding '*' line):
//   @ iter=N sec=S front=N edges=N [resid=R]
std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void PhaseLog::add(std::string name, double seconds, WorkStats work,
                   std::map<std::string, std::string> extra) {
  entries_.push_back(PhaseEntry{std::move(name), seconds, work,
                                std::move(extra), {}});
}

void PhaseLog::add(PhaseEntry entry) {
  entries_.push_back(std::move(entry));
}

void PhaseLog::set_attr(std::string key, std::string value) {
  attrs_[std::move(key)] = std::move(value);
}

double PhaseLog::total(std::string_view phase_name) const {
  double s = 0.0;
  for (const auto& e : entries_) {
    if (e.name == phase_name) s += e.seconds;
  }
  return s;
}

double PhaseLog::total_all() const {
  double s = 0.0;
  for (const auto& e : entries_) s += e.seconds;
  return s;
}

std::optional<PhaseEntry> PhaseLog::find(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e;
  }
  return std::nullopt;
}

WorkStats PhaseLog::total_work() const {
  WorkStats w;
  for (const auto& e : entries_) w += e.work;
  return w;
}

void PhaseLog::clear() {
  entries_.clear();
  attrs_.clear();
}

std::string PhaseLog::to_log_text() const {
  std::ostringstream os;
  os.precision(9);
  for (const auto& [k, v] : attrs_) {
    os << "# " << k << " = " << v << '\n';
  }
  for (const auto& e : entries_) {
    os << "* " << e.name << ": " << e.seconds << " sec";
    if (e.work.edges_processed != 0) os << " edges=" << e.work.edges_processed;
    if (e.work.vertex_updates != 0) os << " vupdates=" << e.work.vertex_updates;
    if (e.work.bytes_touched != 0) os << " bytes=" << e.work.bytes_touched;
    for (const auto& [k, v] : e.extra) os << ' ' << k << '=' << v;
    os << '\n';
    for (const auto& it : e.timeline) {
      os << "@ iter=" << it.iter << " sec=" << it.seconds
         << " front=" << it.frontier << " edges=" << it.edges;
      if (it.has_residual()) os << " resid=" << it.residual;
      os << '\n';
    }
  }
  return os.str();
}

PhaseLog PhaseLog::parse_log_text(std::string_view text) {
  PhaseLog log;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '#') {
      line.remove_prefix(1);
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        throw std::runtime_error("PhaseLog: attribute line missing '='");
      }
      log.set_attr(std::string(trim(line.substr(0, eq))),
                   std::string(trim(line.substr(eq + 1))));
      continue;
    }
    if (line.front() == '@') {
      if (log.entries_.empty()) {
        throw std::runtime_error(
            "PhaseLog: timeline line with no preceding phase");
      }
      line.remove_prefix(1);
      line = trim(line);
      IterRecord rec;
      while (!line.empty()) {
        const std::size_t end = line.find(' ');
        std::string_view tok = line.substr(
            0, end == std::string_view::npos ? line.size() : end);
        line = end == std::string_view::npos ? std::string_view{}
                                             : trim(line.substr(end + 1));
        const std::size_t eq = tok.find('=');
        if (eq == std::string_view::npos) {
          throw std::runtime_error("PhaseLog: bad timeline token: '" +
                                   std::string(tok) + "'");
        }
        const std::string_view key = tok.substr(0, eq);
        const std::string_view val = tok.substr(eq + 1);
        if (key == "iter") {
          rec.iter = text::parse<std::uint64_t>(val, kCtx, key, 0);
        } else if (key == "sec") {
          rec.seconds = text::parse<double>(val, kCtx, key, 0);
        } else if (key == "front") {
          rec.frontier = text::parse<std::uint64_t>(val, kCtx, key, 0);
        } else if (key == "edges") {
          rec.edges = text::parse<std::uint64_t>(val, kCtx, key, 0);
        } else if (key == "resid") {
          rec.residual = text::parse<double>(val, kCtx, key, 0);
        } else {
          throw std::runtime_error("PhaseLog: unknown timeline key: '" +
                                   std::string(key) + "'");
        }
      }
      log.entries_.back().timeline.push_back(rec);
      continue;
    }
    if (line.front() != '*') {
      throw std::runtime_error("PhaseLog: unexpected line: '" +
                               std::string(line) + "'");
    }
    line.remove_prefix(1);
    line = trim(line);

    const std::size_t colon = line.rfind(": ");
    if (colon == std::string_view::npos) {
      throw std::runtime_error("PhaseLog: phase line missing ': '");
    }
    PhaseEntry e;
    e.name = std::string(trim(line.substr(0, colon)));
    std::string_view rest = trim(line.substr(colon + 2));

    // <seconds> sec [k=v ...]
    const std::size_t sp = rest.find(' ');
    if (sp == std::string_view::npos) {
      throw std::runtime_error("PhaseLog: phase line missing duration");
    }
    e.seconds = text::parse<double>(rest.substr(0, sp), kCtx, "seconds", 0);
    rest = trim(rest.substr(sp));
    if (rest.substr(0, 3) != "sec") {
      throw std::runtime_error("PhaseLog: expected 'sec' unit");
    }
    rest = trim(rest.substr(3));

    while (!rest.empty()) {
      const std::size_t end = rest.find(' ');
      std::string_view tok =
          rest.substr(0, end == std::string_view::npos ? rest.size() : end);
      rest = end == std::string_view::npos ? std::string_view{}
                                           : trim(rest.substr(end + 1));
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        throw std::runtime_error("PhaseLog: bad key=value token: '" +
                                 std::string(tok) + "'");
      }
      const std::string_view key = tok.substr(0, eq);
      const std::string_view val = tok.substr(eq + 1);
      if (key == "edges") {
        e.work.edges_processed = text::parse<std::uint64_t>(val, kCtx, key, 0);
      } else if (key == "vupdates") {
        e.work.vertex_updates = text::parse<std::uint64_t>(val, kCtx, key, 0);
      } else if (key == "bytes") {
        e.work.bytes_touched = text::parse<std::uint64_t>(val, kCtx, key, 0);
      } else {
        e.extra[std::string(key)] = std::string(val);
      }
    }
    log.entries_.push_back(std::move(e));
  }
  return log;
}

std::ostream& operator<<(std::ostream& os, const PhaseLog& log) {
  return os << log.to_log_text();
}

}  // namespace epgs

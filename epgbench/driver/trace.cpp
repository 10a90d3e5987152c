#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace epgbench {

double Tracer::Scope::close() {
  if (tracer_ == nullptr) return 0.0;
  const double d = tracer_->end(id_);
  tracer_ = nullptr;
  return d;
}

Tracer::Scope span(Tracer* tracer, std::string name, std::string request) {
  if (tracer == nullptr) return Tracer::Scope(nullptr, -1);
  return Tracer::Scope(tracer,
                       tracer->begin(std::move(name), std::move(request)));
}

int Tracer::begin(std::string name, std::string request) {
  Span s;
  s.name = std::move(name);
  s.request = std::move(request);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_since(origin_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::end(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_s = seconds_since(origin_);
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span " + s.name + " closed out of order");
  }
  open_.pop_back();
  return s.end_s - s.start_s;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

bool Tracer::descends_from(int id, std::string_view root) const {
  for (int p = spans_[static_cast<std::size_t>(id)].parent; p >= 0;
       p = spans_[static_cast<std::size_t>(p)].parent) {
    if (spans_[static_cast<std::size_t>(p)].name == root) return true;
  }
  return false;
}

std::vector<Tracer::Row> Tracer::rows_under(std::string_view root) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, Row> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!descends_from(static_cast<int>(i), root)) continue;
    const Span& s = spans_[i];
    Row& row = by_name[s.name];
    row.name = s.name;
    ++row.calls;
    row.total_s += s.end_s - s.start_s;
    row.self_s += s.end_s - s.start_s - child_time[i];
  }
  std::vector<Row> rows;
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  return rows;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ",\n";
    out << "{\"name\":" << json_quote(s.name)
        << ",\"cat\":" << json_quote(s.name.substr(0, s.name.find('.')))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << json_number(s.start_s * 1e6)
        << ",\"dur\":" << json_number((s.end_s - s.start_s) * 1e6)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    if (!s.request.empty()) out << ",\"request_id\":" << json_quote(s.request);
    out << "}}";
  }
  out << "]}\n";
}

double write_layer_table(const std::string& path,
                         std::vector<Tracer::Row> rows, double explained_s,
                         std::string_view explained_what) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.self_s > b.self_s; });
  double attributed = 0.0;
  for (const auto& r : rows) attributed += r.self_s;
  const double unattributed = explained_s - attributed;
  std::ofstream out(path);
  char line[256];
  std::snprintf(line, sizeof line, "# explains %.6f s of %s\n", explained_s,
                std::string(explained_what).c_str());
  out << line;
  out << "layer\tcalls\tself_s\ttotal_s\tshare\n";
  auto share = [&](double v) {
    return explained_s > 0.0 ? v / explained_s : 0.0;
  };
  for (const auto& r : rows) {
    std::snprintf(line, sizeof line, "%s\t%zu\t%.6f\t%.6f\t%.4f\n",
                  r.name.c_str(), r.calls, r.self_s, r.total_s,
                  share(r.self_s));
    out << line;
  }
  std::snprintf(line, sizeof line, "unattributed\t-\t%.6f\t%.6f\t%.4f\n",
                unattributed, unattributed, share(unattributed));
  out << line;
  return unattributed;
}

}  // namespace epgbench

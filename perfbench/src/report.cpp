#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string load_average() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "null";
  return "[" + json_number(load[0]) + "," + json_number(load[1]) + "," +
         json_number(load[2]) + "]";
}

}  // namespace

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Report::Report(const RunConfig& config) : config_(config) {
  note_string("workload", config.workload);
  note_number("seed", static_cast<double>(config.seed));
  note_number("seconds", config.seconds);
  note("trace", config.trace ? "true" : "false");
  note_number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  note_number("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));
  note_string("cpu_model", cpu_model());
  note_string("build_type", PERFBENCH_BUILD_TYPE);
  note("load_average_start", load_average());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [key, entry] : metrics_) {
    if (key == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

double Report::value(const std::string& name) const {
  for (const auto& [key, entry] : metrics_) {
    if (key == name) return entry.first;
  }
  return std::nan("");
}

void Report::note(const std::string& key, const std::string& json) {
  meta_[key] = json;
}

void Report::note_number(const std::string& key, double value) {
  meta_[key] = json_number(value);
}

void Report::note_string(const std::string& key, const std::string& value) {
  meta_[key] = json_string(value);
}

void Report::operation(bool ok, const std::string& what_failed) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what_failed);
}

void Report::emit() {
  note("load_average_end", load_average());
  std::string failures = "[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) failures += ",";
    failures += json_string(failures_[i]);
  }
  note("failures", failures + "]");

  std::string metrics = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, entry] = metrics_[i];
    if (i != 0) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " +
               json_number(entry.first) +
               ", \"unit\": " + json_string(entry.second) + "}";
  }
  metrics += "}";
  std::string meta = "{";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) meta += ", ";
    first = false;
    meta += json_string(key) + ": " + value;
  }
  meta += "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": " + metrics +
      "}";

  for (const auto& [name, entry] : metrics_) {
    std::printf("%-28s %14.6g %s\n", name.c_str(), entry.first,
                entry.second.c_str());
  }
  for (const std::string& failure : failures_) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("meta %s\n", meta.c_str());

  if (!config_.out_dir.empty()) {
    std::filesystem::create_directories(config_.out_dir);
    const std::string path = config_.out_dir + "/" + config_.workload +
                             "-seed" + std::to_string(config_.seed) +
                             (config_.trace ? "-trace" : "") + ".json";
    std::ofstream out(path);
    out << "{\"result\": " << result << ", \"meta\": " << meta << "}\n";
    std::printf("report %s\n", path.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

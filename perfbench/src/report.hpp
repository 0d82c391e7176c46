// One run's report: the metrics the result line carries, the run metadata that
// keeps numbers from different machines apart, and the correctness tally.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the report and span files are written
};

class Report {
 public:
  explicit Report(const RunConfig& config);

  /// Record a metric (name, value, unit); order of first set is kept.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record run metadata; `json` is an already-encoded JSON value.
  void note(const std::string& key, const std::string& json);
  void note_number(const std::string& key, double value);
  void note_string(const std::string& key, const std::string& value);

  /// Tally one checked operation. A failed check also records why.
  void operation(bool ok, const std::string& what_failed = "");

  /// A metric recorded earlier (NaN when absent).
  double value(const std::string& name) const;

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// Print the human-readable block, write the full report file, and print
  /// the result object as the last stdout line.
  void emit();

 private:
  RunConfig config_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, std::string> meta_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string json_string(const std::string& text);
std::string json_number(double value);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench

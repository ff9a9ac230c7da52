// Plain-text table/CSV rendering for bench output.  Every campaign prints
// the same rows/series as the corresponding thesis table or figure, side by
// side with the paper's reference values where the thesis states them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gfsl::harness {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  Table& add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double ("12.3"), with "-" for NaN.
std::string fmt(double v, int precision = 1);
/// "12.3 ±0.4" mean with CI half-width.
std::string fmt_ci(double mean, double ci, int precision = 1);
/// "12.3 ±σ0.4" mean with sample standard deviation — used where the
/// spread itself (not a confidence bound) is the story, e.g. the noise
/// window the bench_compare gate reasons about.
std::string fmt_mean_stddev(double mean, double stddev, int precision = 1);
/// Human-readable range ("10K", "1M").
std::string fmt_range(std::uint64_t range);
/// Percentage ("48.8%").
std::string fmt_pct(double frac, int precision = 1);

}  // namespace gfsl::harness

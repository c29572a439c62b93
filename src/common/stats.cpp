#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rubin {

void Summary::add(double x) noexcept {
  ++n_;
  if (n_ == 1) {
    mean_ = min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double LatencyRecorder::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double LatencyRecorder::percentile(double q) const {
  if (samples_.empty()) throw std::logic_error("percentile of empty recorder");
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double LatencyRecorder::min() const { return percentile(0.0); }
double LatencyRecorder::max() const { return percentile(1.0); }

}  // namespace rubin

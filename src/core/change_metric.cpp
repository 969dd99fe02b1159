#include "core/change_metric.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace smartflux::core {

void MagnitudeCountImpact::reset() noexcept {
  sum_abs_diff_ = 0.0;
  modified_ = 0;
}

void MagnitudeCountImpact::update(double current, double previous) noexcept {
  sum_abs_diff_ += std::abs(current - previous);
  ++modified_;
}

double MagnitudeCountImpact::compute(std::size_t, double) const noexcept {
  return sum_abs_diff_ * static_cast<double>(modified_);
}

std::unique_ptr<ChangeMetric> MagnitudeCountImpact::clone() const {
  return std::make_unique<MagnitudeCountImpact>();
}

void RelativeImpact::reset() noexcept {
  sum_abs_diff_ = 0.0;
  sum_max_ = 0.0;
  modified_ = 0;
}

void RelativeImpact::update(double current, double previous) noexcept {
  sum_abs_diff_ += std::abs(current - previous);
  sum_max_ += std::max(current, previous);
  ++modified_;
}

double RelativeImpact::compute(std::size_t total_elements, double) const noexcept {
  if (modified_ == 0) return 0.0;
  const double numerator = sum_abs_diff_ * static_cast<double>(modified_);
  const double denominator = sum_max_ * static_cast<double>(total_elements);
  if (denominator <= 0.0) return numerator > 0.0 ? 1.0 : 0.0;
  return std::clamp(numerator / denominator, 0.0, 1.0);
}

std::unique_ptr<ChangeMetric> RelativeImpact::clone() const {
  return std::make_unique<RelativeImpact>();
}

void RelativeError::reset() noexcept {
  sum_abs_diff_ = 0.0;
  modified_ = 0;
}

void RelativeError::update(double current, double previous) noexcept {
  sum_abs_diff_ += std::abs(current - previous);
  ++modified_;
}

double RelativeError::compute(std::size_t total_elements,
                              double previous_total_sum) const noexcept {
  if (modified_ == 0) return 0.0;
  const double numerator = sum_abs_diff_ * static_cast<double>(modified_);
  const double denominator = previous_total_sum * static_cast<double>(total_elements);
  if (denominator <= 0.0) return numerator > 0.0 ? 1.0 : 0.0;
  return std::clamp(numerator / denominator, 0.0, 1.0);
}

std::unique_ptr<ChangeMetric> RelativeError::clone() const {
  return std::make_unique<RelativeError>();
}

RmseError::RmseError(double value_range) : value_range_(value_range) {
  SF_CHECK(value_range > 0.0, "RmseError value_range must be positive");
}

void RmseError::reset() noexcept {
  sum_sq_diff_ = 0.0;
  modified_ = 0;
}

void RmseError::update(double current, double previous) noexcept {
  const double d = current - previous;
  sum_sq_diff_ += d * d;
  ++modified_;
}

double RmseError::compute(std::size_t, double) const noexcept {
  if (modified_ == 0) return 0.0;
  return std::sqrt(sum_sq_diff_ / static_cast<double>(modified_)) / value_range_;
}

std::unique_ptr<ChangeMetric> RmseError::clone() const {
  return std::make_unique<RmseError>(value_range_);
}

std::unique_ptr<ChangeMetric> make_impact_metric(ImpactKind kind) {
  switch (kind) {
    case ImpactKind::kMagnitudeCount: return std::make_unique<MagnitudeCountImpact>();
    case ImpactKind::kRelative: return std::make_unique<RelativeImpact>();
  }
  throw InvalidArgument("unknown ImpactKind");
}

std::unique_ptr<ChangeMetric> make_error_metric(ErrorKind kind, double value_range) {
  switch (kind) {
    case ErrorKind::kRelative: return std::make_unique<RelativeError>();
    case ErrorKind::kRmse: return std::make_unique<RmseError>(value_range);
  }
  throw InvalidArgument("unknown ErrorKind");
}

namespace {

/// Merge-joins two (row, column)-ordered entry sequences into `metric`
/// (inserts, deletes, modified pairs) and adds every previous value to
/// `previous_total` in visit order.
template <typename CurIt, typename PrevIt>
void merge_join(CurIt cur, CurIt cur_end, PrevIt prev, PrevIt prev_end, ChangeMetric& metric,
                double& previous_total) {
  while (cur != cur_end || prev != prev_end) {
    if (prev == prev_end) {
      metric.update(cur->value, 0.0);  // insert
      ++cur;
      continue;
    }
    const int cmp = cur == cur_end ? 1 : ds::compare_entries(*cur, *prev);
    if (cmp < 0) {
      metric.update(cur->value, 0.0);  // insert
      ++cur;
      continue;
    }
    previous_total += prev->value;
    if (cmp > 0) {
      metric.update(0.0, prev->value);  // delete
    } else {
      if (cur->value != prev->value) metric.update(cur->value, prev->value);
      ++cur;
    }
    ++prev;
  }
}

}  // namespace

double compute_change(const ds::FlatSnapshot& current, const ds::FlatSnapshot& previous,
                      ChangeMetric& metric) {
  metric.reset();
  double previous_total = 0.0;
  const auto cur_runs = current.runs();
  const auto prev_runs = previous.runs();
  if (current.source() != nullptr && current.source() == previous.source() &&
      cur_runs.size() == prev_runs.size()) {
    // One table entry: run r of both snapshots holds the rows of slot r, so
    // the join never crosses runs.
    for (std::size_t r = 0; r < cur_runs.size(); ++r) {
      const auto c = cur_runs[r];
      const auto p = prev_runs[r];
      merge_join(c.begin(), c.end(), p.begin(), p.end(), metric, previous_total);
    }
  } else {
    merge_join(current.begin(), current.end(), previous.begin(), previous.end(), metric,
               previous_total);
  }
  const std::size_t n = current.empty() ? previous.size() : current.size();
  return metric.compute(n, previous_total);
}

double compute_change(const std::map<std::string, double>& current,
                      const std::map<std::string, double>& previous, ChangeMetric& metric) {
  metric.reset();
  double previous_total = 0.0;
  for (const auto& [_, v] : previous) previous_total += v;

  // Merge-walk the two sorted maps: classify each element as unchanged,
  // modified, inserted, or deleted.
  auto cur = current.begin();
  auto prev = previous.begin();
  while (cur != current.end() || prev != previous.end()) {
    if (prev == previous.end() || (cur != current.end() && cur->first < prev->first)) {
      metric.update(cur->second, 0.0);  // insert
      ++cur;
    } else if (cur == current.end() || prev->first < cur->first) {
      metric.update(0.0, prev->second);  // delete
      ++prev;
    } else {
      if (cur->second != prev->second) metric.update(cur->second, prev->second);
      ++cur;
      ++prev;
    }
  }
  const std::size_t n = current.empty() ? previous.size() : current.size();
  return metric.compute(n, previous_total);
}

}  // namespace smartflux::core

#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "datastore/flat_snapshot.h"

namespace smartflux::core {

/// User-extensible metric over a set of element changes in a data container
/// (the paper's custom input-impact / output-error API, §4.2): `update` is
/// called once per modified element with its current and previous value;
/// `compute` is called when no more elements are expected and returns the
/// overall metric. `reset` clears accumulated state for reuse.
class ChangeMetric {
 public:
  virtual ~ChangeMetric() = default;

  virtual void reset() noexcept = 0;
  /// One modified element: `current` is the updated state x_i, `previous` the
  /// latest saved state x'_i (0 for inserted elements, per §2.1).
  virtual void update(double current, double previous) noexcept = 0;
  /// Overall metric. `total_elements` is n, the number of elements in the
  /// container; `previous_total_sum` is Σx'_i over all n elements (needed by
  /// Eq. 3).
  virtual double compute(std::size_t total_elements, double previous_total_sum) const noexcept = 0;
  virtual std::unique_ptr<ChangeMetric> clone() const = 0;
  virtual std::string name() const = 0;
};

/// Eq. 1: ι = Σ|x_i − x'_i| · m — magnitude of change scaled by the number of
/// modified elements. Unbounded above.
class MagnitudeCountImpact final : public ChangeMetric {
 public:
  void reset() noexcept override;
  void update(double current, double previous) noexcept override;
  double compute(std::size_t total_elements, double previous_total_sum) const noexcept override;
  std::unique_ptr<ChangeMetric> clone() const override;
  std::string name() const override { return "MagnitudeCountImpact(Eq1)"; }

 private:
  double sum_abs_diff_ = 0.0;
  std::size_t modified_ = 0;
};

/// Eq. 2: ι = (Σ|x_i − x'_i| · m) / (Σ max(x_i, x'_i) · n) — relative impact
/// in [0, 1] (clamped).
class RelativeImpact final : public ChangeMetric {
 public:
  void reset() noexcept override;
  void update(double current, double previous) noexcept override;
  double compute(std::size_t total_elements, double previous_total_sum) const noexcept override;
  std::unique_ptr<ChangeMetric> clone() const override;
  std::string name() const override { return "RelativeImpact(Eq2)"; }

 private:
  double sum_abs_diff_ = 0.0;
  double sum_max_ = 0.0;
  std::size_t modified_ = 0;
};

/// Eq. 3: ε = (Σ|x_i − x'_i| · m) / (Σ_{i=1..n} x'_i · n) — relative impact of
/// new updates on the latest state, in [0, 1] (clamped).
class RelativeError final : public ChangeMetric {
 public:
  void reset() noexcept override;
  void update(double current, double previous) noexcept override;
  double compute(std::size_t total_elements, double previous_total_sum) const noexcept override;
  std::unique_ptr<ChangeMetric> clone() const override;
  std::string name() const override { return "RelativeError(Eq3)"; }

 private:
  double sum_abs_diff_ = 0.0;
  std::size_t modified_ = 0;
};

/// Eq. 4: ε = sqrt(Σ(x_i − x'_i)² / m) — RMSE over modified elements,
/// optionally normalized by a known value range so it is comparable with
/// bounds in [0, 1].
class RmseError final : public ChangeMetric {
 public:
  /// `value_range` > 0 divides the RMSE (e.g. 100 for sensors in [0, 100]);
  /// 1.0 keeps the raw RMSE of the paper's Eq. 4.
  explicit RmseError(double value_range = 1.0);

  void reset() noexcept override;
  void update(double current, double previous) noexcept override;
  double compute(std::size_t total_elements, double previous_total_sum) const noexcept override;
  std::unique_ptr<ChangeMetric> clone() const override;
  std::string name() const override { return "RmseError(Eq4)"; }

 private:
  double value_range_;
  double sum_sq_diff_ = 0.0;
  std::size_t modified_ = 0;
};

/// Built-in metric selection for configuration structs.
enum class ImpactKind { kMagnitudeCount, kRelative };
enum class ErrorKind { kRelative, kRmse };

std::unique_ptr<ChangeMetric> make_impact_metric(ImpactKind kind);
std::unique_ptr<ChangeMetric> make_error_metric(ErrorKind kind, double value_range = 1.0);

/// Runs a metric over the difference between two container snapshots (maps
/// from element key to value). Elements present in `current` but not in
/// `previous` are inserts (previous = 0); elements only in `previous` are
/// deletes (current = 0). Returns metric.compute(n, Σ previous).
/// n = size of `current` (falling back to `previous` when current is empty).
double compute_change(const std::map<std::string, double>& current,
                      const std::map<std::string, double>& previous, ChangeMetric& metric);

/// Same diff over two flat snapshots, with no per-element allocation. An
/// element whose interned key pointers are equal in both snapshots is
/// matched by two pointer compares instead of string comparisons. Two
/// snapshots of one table entry with the same run count are merge-joined
/// run by run (slot by slot); any other pair (other store, other ring, a
/// default snapshot) is merge-joined in merged global order. Element
/// classification always matches the map-based overload. The merged walk
/// also visits in its order, so its values are bit-identical; so are the
/// run-by-run join's at one shard (one run). At more shards the run-by-run
/// join folds updates and Σx′ in run order, which may move the last ulps.
double compute_change(const ds::FlatSnapshot& current, const ds::FlatSnapshot& previous,
                      ChangeMetric& metric);

}  // namespace smartflux::core

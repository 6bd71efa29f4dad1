#pragma once
// The paper's comparison GARs (§VI): Mean, coordinate-wise trimmed mean,
// coordinate-wise median, geometric median, Multi-Krum, Bulyan and DnC.
// All operate on the flat GradientMatrix; coordinate-wise rules
// parallelize over coordinate ranges, distance-based rules over the
// pairwise block.

#include "aggregators/aggregator.h"

namespace signguard::agg {

// Plain arithmetic mean — the undefended FedAvg baseline.
class MeanAggregator : public Aggregator {
 public:
  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "Mean"; }
};

// Coordinate-wise trimmed mean (Yin et al., ICML'18): drop the m largest
// and m smallest values per coordinate, average the rest.
class TrimmedMeanAggregator : public Aggregator {
 public:
  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "TrMean"; }
};

// Coordinate-wise median (Yin et al., ICML'18).
class MedianAggregator : public Aggregator {
 public:
  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "Median"; }
};

// Geometric median via Weiszfeld iterations (Chen et al., 2017).
class GeoMedAggregator : public Aggregator {
 public:
  explicit GeoMedAggregator(std::size_t max_iters = 50, double eps = 1e-8)
      : max_iters_(max_iters), eps_(eps) {}

  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "GeoMed"; }

 private:
  std::size_t max_iters_;
  double eps_;
};

// Multi-Krum (Blanchard et al., NeurIPS'17): score each gradient by the
// sum of its n-m-2 smallest squared distances to the others; average the
// n-m-2 best-scored gradients.
class MultiKrumAggregator : public Aggregator {
 public:
  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "Multi-Krum"; }
  std::vector<std::size_t> last_selected() const override {
    return selected_;
  }
  bool reports_selection() const override { return true; }

 private:
  std::vector<std::size_t> selected_;
};

// Bulyan (El Mhamdi et al., ICML'18): iterative Krum selection of
// theta = n - 2m gradients, then per-coordinate mean of the
// beta = theta - 2m values closest to the coordinate median (on a
// distance tie, the lower value first).
class BulyanAggregator : public Aggregator {
 public:
  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "Bulyan"; }
  std::vector<std::size_t> last_selected() const override {
    return selected_;
  }
  bool reports_selection() const override { return true; }

 private:
  std::vector<std::size_t> selected_;
};

// Divide-and-Conquer (Shejwalkar & Houmansadr, NDSS'21): project the
// (coordinate-subsampled, centered) gradients onto their top singular
// direction, drop the filter_frac * m highest outlier scores, repeat.
struct DnCConfig {
  std::size_t niters = 1;
  double filter_frac = 1.5;       // fraction of m removed per iteration
  double subsample_frac = 0.25;   // fraction of coordinates sampled
  std::size_t power_iters = 20;   // power-iteration steps for top-1 SVD
};

class DnCAggregator : public Aggregator {
 public:
  explicit DnCAggregator(DnCConfig cfg = {}) : cfg_(cfg) {}

  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "DnC"; }
  std::vector<std::size_t> last_selected() const override {
    return selected_;
  }
  bool reports_selection() const override { return true; }

 private:
  DnCConfig cfg_;
  std::vector<std::size_t> selected_;
};

}  // namespace signguard::agg

#include "eval/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "la/vector_ops.h"

namespace coane {
namespace {

// One full K-means run: k-means++ seeding then Lloyd iterations.
Result<KMeansResult> RunOnce(const DenseMatrix& points, int k,
                             const KMeansConfig& config, Rng* rng,
                             const RunContext* ctx) {
  const int64_t n = points.rows();
  const int64_t d = points.cols();
  ThreadPool* pool = GlobalThreadPool();

  // --- k-means++ seeding. All RNG draws stay on this thread, in the same
  // order as the sequential loop; only the rng-free distance update is
  // sharded (disjoint min_dist slots).
  DenseMatrix centroids(k, d);
  std::vector<double> min_dist(static_cast<size_t>(n),
                               std::numeric_limits<double>::infinity());
  int64_t first = rng->UniformInt(n);
  for (int64_t j = 0; j < d; ++j) centroids.At(0, j) = points.At(first, j);
  for (int c = 1; c < k; ++c) {
    (void)ParallelFor(
        pool, nullptr, "eval.kmeans_seed", n, ElasticShards(pool, n),
        [&](int64_t, int64_t begin, int64_t end) -> Status {
          for (int64_t i = begin; i < end; ++i) {
            min_dist[static_cast<size_t>(i)] = std::min(
                min_dist[static_cast<size_t>(i)],
                SquaredDistance(points.Row(i), centroids.Row(c - 1), d));
          }
          return Status::OK();
        });
    double total = 0.0;
    for (double m : min_dist) total += m;
    int64_t pick;
    if (total <= 0.0) {
      pick = rng->UniformInt(n);
    } else {
      double u = rng->Uniform() * total;
      pick = n - 1;
      double acc = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        acc += min_dist[static_cast<size_t>(i)];
        if (u < acc) {
          pick = i;
          break;
        }
      }
    }
    for (int64_t j = 0; j < d; ++j) centroids.At(c, j) = points.At(pick, j);
  }

  // --- Lloyd iterations.
  KMeansResult result;
  result.assignment.assign(static_cast<size_t>(n), 0);
  std::vector<int64_t> counts(static_cast<size_t>(k));
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    COANE_RETURN_IF_STOPPED(ctx, "eval.kmeans_iter");
    // Assignment: disjoint assignment[i] writes; the inertia reduction and
    // centroid sums below use a fixed shard count with ordered folds so
    // the floating-point totals match at every thread count.
    struct ShardStats {
      double inertia = 0.0;
      bool changed = false;
      DenseMatrix sums;
      std::vector<int64_t> counts;
    };
    std::vector<ShardStats> shard_stats(
        static_cast<size_t>(kFixedReductionShards));
    (void)ParallelFor(
        pool, nullptr, "eval.kmeans_assign", n, kFixedReductionShards,
        [&](int64_t shard, int64_t begin, int64_t end) -> Status {
          ShardStats& ss = shard_stats[static_cast<size_t>(shard)];
          ss.sums = DenseMatrix(k, d, 0.0f);
          ss.counts.assign(static_cast<size_t>(k), 0);
          for (int64_t i = begin; i < end; ++i) {
            int32_t best = 0;
            double best_d = std::numeric_limits<double>::infinity();
            for (int c = 0; c < k; ++c) {
              const double dist =
                  SquaredDistance(points.Row(i), centroids.Row(c), d);
              if (dist < best_d) {
                best_d = dist;
                best = c;
              }
            }
            if (result.assignment[static_cast<size_t>(i)] != best) {
              result.assignment[static_cast<size_t>(i)] = best;
              ss.changed = true;
            }
            ss.inertia += best_d;
            ss.counts[static_cast<size_t>(best)]++;
            Axpy(1.0f, points.Row(i), ss.sums.Row(best), d);
          }
          return Status::OK();
        });
    bool changed = false;
    result.inertia = 0.0;
    for (const ShardStats& ss : shard_stats) {
      result.inertia += ss.inertia;
      changed = changed || ss.changed;
    }
    result.iterations = iter + 1;
    if (!changed && iter > 0) break;
    // Recompute centroids from the per-shard sums (ordered fold); empty
    // clusters are re-seeded at a random point.
    centroids.Fill(0.0f);
    std::fill(counts.begin(), counts.end(), 0);
    for (const ShardStats& ss : shard_stats) {
      if (ss.counts.empty()) continue;  // shard never ran (n < shards)
      centroids.Axpy(1.0f, ss.sums);
      for (int c = 0; c < k; ++c) {
        counts[static_cast<size_t>(c)] += ss.counts[static_cast<size_t>(c)];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] > 0) {
        const float inv =
            1.0f / static_cast<float>(counts[static_cast<size_t>(c)]);
        for (int64_t j = 0; j < d; ++j) centroids.At(c, j) *= inv;
      } else {
        const int64_t pick = rng->UniformInt(n);
        for (int64_t j = 0; j < d; ++j) {
          centroids.At(c, j) = points.At(pick, j);
        }
      }
    }
  }
  result.centroids = std::move(centroids);
  return result;
}

}  // namespace

Result<KMeansResult> RunKMeans(const DenseMatrix& points, int k,
                               const KMeansConfig& config,
                               const RunContext* ctx) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (points.rows() < k) {
    return Status::InvalidArgument("fewer points than clusters");
  }
  if (config.num_restarts < 1) {
    return Status::InvalidArgument("num_restarts must be >= 1");
  }
  Rng rng(config.seed);
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (int r = 0; r < config.num_restarts; ++r) {
    COANE_RETURN_IF_STOPPED(ctx, "eval.kmeans_restart");
    auto candidate = RunOnce(points, k, config, &rng, ctx);
    if (!candidate.ok()) return candidate.status();
    if (candidate.value().inertia < best.inertia) {
      best = std::move(candidate).ValueOrDie();
    }
  }
  return best;
}

}  // namespace coane

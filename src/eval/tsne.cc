#include "eval/tsne.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/fault_injection.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/rng.h"
#include "la/vector_ops.h"

namespace coane {
namespace {

// Conditional probabilities p_{j|i} with bandwidth found by binary search so
// the row's perplexity matches the target.
Result<std::vector<double>> ComputeP(const DenseMatrix& x, double perplexity,
                                     const RunContext* ctx) {
  const int64_t n = x.rows();
  ThreadPool* pool = GlobalThreadPool();
  std::vector<double> sq_dist(static_cast<size_t>(n * n), 0.0);
  // Every (i, j) cell is written exactly once with a value that depends
  // only on x, so sharding the outer rows is race-free and bit-identical.
  (void)ParallelFor(
      pool, nullptr, "eval.tsne_dist", n, ElasticShards(pool, n),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        for (int64_t i = begin; i < end; ++i) {
          for (int64_t j = i + 1; j < n; ++j) {
            const double d = SquaredDistance(x.Row(i), x.Row(j), x.cols());
            sq_dist[static_cast<size_t>(i * n + j)] = d;
            sq_dist[static_cast<size_t>(j * n + i)] = d;
          }
        }
        return Status::OK();
      });
  const double target_entropy = std::log(perplexity);
  std::vector<double> p(static_cast<size_t>(n * n), 0.0);
  // Each row's bandwidth search reads sq_dist and writes only its own row
  // of p: embarrassingly parallel.
  Status st = ParallelFor(
      pool, ctx, "eval.tsne_perplexity", n, ElasticShards(pool, n),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        std::vector<double> row(static_cast<size_t>(n));
        for (int64_t i = begin; i < end; ++i) {
          COANE_RETURN_IF_STOPPED(ctx, "eval.tsne_perplexity");
          double beta = 1.0, beta_min = 0.0, beta_max = 1e12;
          bool has_max = false;
          for (int iter = 0; iter < 60; ++iter) {
            double sum = 0.0;
            for (int64_t j = 0; j < n; ++j) {
              row[static_cast<size_t>(j)] =
                  j == i
                      ? 0.0
                      : std::exp(
                            -beta *
                            sq_dist[static_cast<size_t>(i * n + j)]);
              sum += row[static_cast<size_t>(j)];
            }
            if (sum <= 0.0) sum = 1e-12;
            double entropy = 0.0;
            for (int64_t j = 0; j < n; ++j) {
              const double pij = row[static_cast<size_t>(j)] / sum;
              row[static_cast<size_t>(j)] = pij;
              if (pij > 1e-12) entropy -= pij * std::log(pij);
            }
            const double diff = entropy - target_entropy;
            if (std::abs(diff) < 1e-5) break;
            if (diff > 0) {  // entropy too high -> sharpen
              beta_min = beta;
              beta = has_max ? (beta + beta_max) / 2.0 : beta * 2.0;
            } else {
              beta_max = beta;
              has_max = true;
              beta = (beta + beta_min) / 2.0;
            }
          }
          for (int64_t j = 0; j < n; ++j) {
            p[static_cast<size_t>(i * n + j)] = row[static_cast<size_t>(j)];
          }
        }
        return Status::OK();
      });
  if (!st.ok()) return st;
  // Symmetrize: P = (P + P^T) / (2n), floored for stability.
  std::vector<double> sym(static_cast<size_t>(n * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      sym[static_cast<size_t>(i * n + j)] =
          std::max((p[static_cast<size_t>(i * n + j)] +
                    p[static_cast<size_t>(j * n + i)]) /
                       (2.0 * static_cast<double>(n)),
                   1e-12);
    }
  }
  return sym;
}

}  // namespace

Result<DenseMatrix> RunTsne(const DenseMatrix& x, const TsneConfig& config,
                            const RunContext* ctx) {
  const int64_t n = x.rows();
  if (n < 5) return Status::InvalidArgument("t-SNE needs at least 5 points");
  if (3.0 * config.perplexity >= static_cast<double>(n)) {
    return Status::InvalidArgument("perplexity too large for n");
  }
  if (config.output_dim < 1) {
    return Status::InvalidArgument("output_dim must be positive");
  }
  Rng rng(config.seed);
  const int64_t m = config.output_dim;
  ThreadPool* pool = GlobalThreadPool();

  auto p_result = ComputeP(x, config.perplexity, ctx);
  if (!p_result.ok()) return p_result.status();
  std::vector<double> p = std::move(p_result).ValueOrDie();

  DenseMatrix y(n, m);
  y.GaussianInit(&rng, 0.0f, 1e-2f);
  DenseMatrix velocity(n, m, 0.0f);
  std::vector<double> q(static_cast<size_t>(n * n));
  std::vector<double> num(static_cast<size_t>(n * n));

  for (int iter = 0; iter < config.iterations; ++iter) {
    COANE_RETURN_IF_STOPPED(ctx, "eval.tsne_iter");
    if (fault::ShouldFail("eval.tsne_iter")) {
      return Status::Cancelled("injected cancel at eval.tsne_iter");
    }
    const double exaggeration =
        iter < config.exaggeration_iters ? config.exaggeration : 1.0;
    const double momentum = iter < config.momentum_switch_iter
                                ? config.initial_momentum
                                : config.final_momentum;
    // Student-t numerators and normalizer. z_sum is a floating-point
    // reduction, so the rows are carved into a *fixed* number of shards
    // whose partial sums are folded in shard order — the same summation
    // tree at every thread count.
    std::vector<double> z_partial(static_cast<size_t>(kFixedReductionShards),
                                  0.0);
    (void)ParallelFor(
        pool, nullptr, "eval.tsne_num", n, kFixedReductionShards,
        [&](int64_t shard, int64_t begin, int64_t end) -> Status {
          double local = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            for (int64_t j = i + 1; j < n; ++j) {
              const double d = SquaredDistance(y.Row(i), y.Row(j), m);
              const double v = 1.0 / (1.0 + d);
              num[static_cast<size_t>(i * n + j)] = v;
              num[static_cast<size_t>(j * n + i)] = v;
              local += 2.0 * v;
            }
            num[static_cast<size_t>(i * n + i)] = 0.0;
          }
          z_partial[static_cast<size_t>(shard)] = local;
          return Status::OK();
        });
    double z_sum = 0.0;
    for (double zp : z_partial) z_sum += zp;
    z_sum = std::max(z_sum, 1e-12);

    // Gradient: dC/dy_i = 4 sum_j (P_ij * ex - Q_ij) num_ij (y_i - y_j).
    // Writes only velocity row i — row-disjoint, elastic sharding.
    (void)ParallelFor(
        pool, nullptr, "eval.tsne_grad", n, ElasticShards(pool, n),
        [&](int64_t, int64_t begin, int64_t end) -> Status {
          std::vector<double> grad(static_cast<size_t>(m), 0.0);
          for (int64_t i = begin; i < end; ++i) {
            std::fill(grad.begin(), grad.end(), 0.0);
            for (int64_t j = 0; j < n; ++j) {
              if (j == i) continue;
              const double nij = num[static_cast<size_t>(i * n + j)];
              const double qij = std::max(nij / z_sum, 1e-12);
              const double coeff =
                  4.0 *
                  (exaggeration * p[static_cast<size_t>(i * n + j)] - qij) *
                  nij;
              for (int64_t k = 0; k < m; ++k) {
                grad[static_cast<size_t>(k)] +=
                    coeff * (static_cast<double>(y.At(i, k)) - y.At(j, k));
              }
            }
            for (int64_t k = 0; k < m; ++k) {
              const float v = static_cast<float>(
                  momentum * velocity.At(i, k) -
                  config.learning_rate * grad[static_cast<size_t>(k)]);
              velocity.At(i, k) = v;
            }
          }
          return Status::OK();
        });
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t k = 0; k < m; ++k) y.At(i, k) += velocity.At(i, k);
    }
    // Recenter.
    for (int64_t k = 0; k < m; ++k) {
      double mean = 0.0;
      for (int64_t i = 0; i < n; ++i) mean += y.At(i, k);
      mean /= static_cast<double>(n);
      for (int64_t i = 0; i < n; ++i) {
        y.At(i, k) -= static_cast<float>(mean);
      }
    }
  }
  (void)q;
  return y;
}

}  // namespace coane

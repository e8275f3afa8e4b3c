// Reproduces Fig. 6b: analysis of the learned convolution filter weights.
//
// The paper visualizes the filters (positions x attribute dims), sorts
// attribute dims by the center position's weight, and observes that
// attributes weighted strongly at the center are also weighted strongly at
// neighbor positions — filters latch onto *shared* attributes, which is
// how they capture latent social circles. Two quantitative stand-ins:
//  (1) Pearson correlation between |center weights| and |neighbor-position
//      weights| across attribute dims — positive and strongest adjacent to
//      the center;
//  (2) mean |weight| on planted circle-topic attributes vs noise-only
//      attributes (the synthetic ground truth makes this checkable):
//      filters should weight topic attributes more.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/string_utils.h"
#include "core/coane_model.h"
#include "datasets/dataset_registry.h"
#include "eval/method_zoo.h"
#include "la/vector_ops.h"

namespace coane {
namespace {

void Run(const benchutil::BenchOptions& opt) {
  const double scale = opt.full ? 1.0 : DefaultBenchScale("cora");
  AttributedNetwork net = benchutil::Unwrap(
      MakeDataset("cora", scale, opt.seed), "MakeDataset");
  MethodConfig mcfg;
  mcfg.fast = !opt.full;
  mcfg.seed = opt.seed;
  CoaneConfig cfg = DefaultCoaneConfig(mcfg);

  CoaneModel model(net.graph, cfg);
  Status st = model.Preprocess();
  if (!st.ok()) {
    COANE_LOG(Error) << st.ToString();
    std::exit(1);
  }
  const ContextEncoder& enc = model.encoder();
  const int c = cfg.context_size;
  // The Xavier-initialized W_p, copied before any training step.
  std::vector<DenseMatrix> initial;
  for (int p = 0; p < c; ++p) initial.push_back(enc.PositionWeights(p));
  benchutil::Unwrap(model.Train(), "Train");
  const int center = (c - 1) / 2;
  const int64_t d = net.graph.num_attributes();

  // Per-attribute learned movement |W_p - W_p(init)| for each position,
  // summed over the d' filters (each column of W_p is one filter's
  // position-p slice). Movement rather than raw magnitude: dimensions the
  // filters never learn about keep their Xavier-initialized values.
  auto position_magnitude = [&](int p) {
    const DenseMatrix& w = enc.PositionWeights(p);
    const DenseMatrix& w0 = initial[static_cast<size_t>(p)];
    std::vector<double> mag(static_cast<size_t>(d), 0.0);
    for (int64_t a = 0; a < d; ++a) {
      for (int64_t j = 0; j < w.cols(); ++j) {
        mag[static_cast<size_t>(a)] += std::abs(w.At(a, j) - w0.At(a, j));
      }
    }
    return mag;
  };
  const std::vector<double> center_mag = position_magnitude(center);

  TablePrinter corr_table(
      "Fig. 6b (1): correlation of |weights| between the center position "
      "and each context position");
  corr_table.SetHeader({"position (center=0)", "pearson corr"});
  for (int p = 0; p < c; ++p) {
    if (p == center) continue;
    corr_table.AddRow(
        {std::to_string(p - center),
         FormatDouble(PearsonCorrelation(center_mag, position_magnitude(p)),
                      3)});
  }
  corr_table.ToStdout();
  benchutil::WriteCsv(corr_table, "fig6b_position_correlation");

  // Full heatmap data for plotting the paper's actual figure: per context
  // position, the aggregate |weight movement| of every attribute dim,
  // with dims sorted by the center position's value (as the paper sorts).
  {
    std::vector<int64_t> dim_order(static_cast<size_t>(d));
    for (int64_t a = 0; a < d; ++a) dim_order[static_cast<size_t>(a)] = a;
    std::sort(dim_order.begin(), dim_order.end(), [&](int64_t a, int64_t b) {
      return center_mag[static_cast<size_t>(a)] >
             center_mag[static_cast<size_t>(b)];
    });
    TablePrinter heatmap("fig6b heatmap (positions x sorted attribute dims)");
    std::vector<std::string> header = {"sorted_dim", "attr_id"};
    for (int p = 0; p < c; ++p) {
      header.push_back("pos" + std::to_string(p - center));
    }
    heatmap.SetHeader(header);
    std::vector<std::vector<double>> mags;
    for (int p = 0; p < c; ++p) mags.push_back(position_magnitude(p));
    for (int64_t rank = 0; rank < d; ++rank) {
      const int64_t a = dim_order[static_cast<size_t>(rank)];
      std::vector<std::string> row = {std::to_string(rank),
                                      std::to_string(a)};
      for (int p = 0; p < c; ++p) {
        row.push_back(
            FormatDouble(mags[static_cast<size_t>(p)][static_cast<size_t>(a)],
                         4));
      }
      heatmap.AddRow(row);
    }
    benchutil::WriteCsv(heatmap, "fig6b_heatmap");
    std::cout << "[full heatmap data in bench_out/fig6b_heatmap.csv]\n";
  }

  // Weight movement by attribute role: class-wide topics, circle topics,
  // and pure-noise dimensions (never owned by any class or circle).
  std::set<int64_t> topic_attrs, class_attrs;
  for (const auto& attrs : net.circle_attributes) {
    topic_attrs.insert(attrs.begin(), attrs.end());
  }
  for (const auto& attrs : net.class_attributes) {
    class_attrs.insert(attrs.begin(), attrs.end());
  }
  // Per-attribute alignment between the center-position weight row and the
  // neighbor-position rows (mean cosine over neighbor positions). The
  // paper's observation — "midst attributes with higher weights are often
  // accompanied by higher weights of their neighbors" — predicts shared
  // (class/circle) topics align across positions while pure-noise
  // dimensions do not.
  auto attr_alignment = [&](int64_t a) {
    const DenseMatrix& wc = enc.PositionWeights(center);
    double sum = 0.0;
    int counted = 0;
    for (int p = 0; p < c; ++p) {
      if (p == center) continue;
      const DenseMatrix& wp = enc.PositionWeights(p);
      sum += CosineSimilarity(wc.Row(a), wp.Row(a), wc.cols());
      ++counted;
    }
    return sum / counted;
  };
  double topic_sum = 0.0, class_sum = 0.0, noise_sum = 0.0;
  int64_t topic_n = 0, class_n = 0, noise_n = 0;
  for (int64_t a = 0; a < d; ++a) {
    const double align = attr_alignment(a);
    if (class_attrs.count(a) > 0) {
      class_sum += align;
      ++class_n;
    } else if (topic_attrs.count(a) > 0) {
      topic_sum += align;
      ++topic_n;
    } else {
      noise_sum += align;
      ++noise_n;
    }
  }
  TablePrinter topic_table(
      "Fig. 6b (2): mean center-vs-neighbor weight alignment by attribute "
      "role");
  topic_table.SetHeader({"attribute group", "count",
                         "mean cross-position cosine"});
  topic_table.AddRow({"class topics", std::to_string(class_n),
                      FormatDouble(class_sum / std::max<int64_t>(1, class_n),
                                   4)});
  topic_table.AddRow({"circle topics", std::to_string(topic_n),
                      FormatDouble(topic_sum / std::max<int64_t>(1, topic_n),
                                   4)});
  topic_table.AddRow({"pure noise", std::to_string(noise_n),
                      FormatDouble(noise_sum / std::max<int64_t>(1, noise_n),
                                   4)});
  topic_table.ToStdout();
  benchutil::WriteCsv(topic_table, "fig6b_topic_weights");
  std::cout << "Expected shape (paper): positive center-neighbor weight "
               "correlation (strongest next to the center), and filters "
               "concentrating weight on shared (topic) attributes.\n";
}

}  // namespace
}  // namespace coane

int main(int argc, char** argv) {
  coane::Run(coane::benchutil::ParseArgs(argc, argv));
  return 0;
}

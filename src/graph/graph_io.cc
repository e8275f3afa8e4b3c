#include "graph/graph_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/record_file.h"
#include "graph/graph_builder.h"

namespace coane {
namespace {

// Keep only this many example diagnostics in a LoadSummary so a fully
// corrupt multi-gigabyte file cannot balloon memory through error strings.
constexpr size_t kMaxSampleDiagnostics = 8;
// Deadline/cancel granularity while scanning large files.
constexpr int64_t kLinesPerContextCheck = 4096;

// Calls `visit` on each whitespace-separated field of `line`, a view of
// its bytes. The test is std::isspace in the "C" locale, inlined: a call
// per byte costs more than parsing the floats.
template <typename Visit>
void ForEachField(std::string_view line, const Visit& visit) {
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ' ||
        (line[i] >= '\t' && line[i] <= '\r')) {
      if (i > start) visit(line.substr(start, i - start));
      start = i + 1;
    }
  }
}

// Strict integer parse (flags::ParseWhole). `overflow` distinguishes "not
// a number" from "a number too large": an all-digit token that does not
// parse is out of range.
bool ParseId(std::string_view s, int64_t* out, bool* overflow) {
  if (flags::ParseWhole(s, out)) {
    *overflow = false;
    return true;
  }
  const size_t first = !s.empty() && s[0] == '-' ? 1 : 0;
  *overflow = s.size() > first &&
              s.find_first_not_of("0123456789", first) == std::string::npos;
  return false;
}

// Full-token double parse. Trailing garbage fails, and so does a NUL
// inside the token (strtod would stop there); "inf"/"nan"/overflowing or
// underflowing literals parse but report finite=false so callers can
// count them as non-finite values rather than bad tokens.
bool ParseDouble(std::string_view token, double* out, bool* finite) {
  const std::string s(token);
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || end != s.c_str() + s.size()) return false;
  *finite = std::isfinite(*out) && errno != ERANGE;
  return true;
}

// `token` as a double: std::from_chars when it takes the whole token,
// else ParseDouble (strtod) decides. Only tokens no writer emits reach
// strtod: a leading '+', a hex float, a value past the double range.
bool ParseValue(std::string_view token, double* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  bool finite = false;
  return (ec == std::errc() && ptr == end) || ParseDouble(token, out, &finite);
}

// Appends `sep`, then `value` as `operator<<` prints a float by default:
// "%.6g" of the value promoted to double.
void AppendFloat(std::string* out, char sep, float value) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf),
                               static_cast<double>(value),
                               std::chars_format::general, 6);
  out->push_back(sep);
  out->append(buf, r.ptr);
}

// `token` as a diagnostic quotes it: bytes outside printable ASCII (a
// binary file read as text) show as '?', and a long token is cut short.
std::string Shown(std::string_view token) {
  std::string shown(token.substr(0, 24));
  for (char& c : shown) {
    if (!std::isprint(static_cast<unsigned char>(c))) c = '?';
  }
  return shown.size() < token.size() ? shown + "..." : shown;
}

// A whitespace-separated field of a data line and its 1-based column.
struct Field {
  std::string_view text;
  int column = 1;
};
using Row = std::vector<Field>;

// `field` as the loader's diagnostics quote it: its bytes as they are.
std::string Quoted(const Field& field) {
  return "'" + std::string(field.text) + "'";
}

// Routes a malformed data line to the active policy: strict mode returns
// its "path:line:column: message" diagnostic as an error (aborting the
// load), lenient mode records it in the summary and returns OK so the
// line is skipped.
class LineDiagnostics {
 public:
  LineDiagnostics(const std::string& path, int64_t line,
                  const LoadOptions& options, LoadSummary* summary)
      : path_(path), line_(line), options_(options), summary_(summary) {}

  Status Flag(const Field& at, const std::string& message,
              int64_t LoadSummary::*counter,
              StatusCode code = StatusCode::kInvalidArgument) {
    summary_->*counter += 1;
    const std::string diag = path_ + ":" + std::to_string(line_) + ":" +
                             std::to_string(at.column) + ": " + message;
    if (options_.bad_line_policy == BadLinePolicy::kStrict) {
      return Status(code, diag);
    }
    summary_->quarantined_lines += 1;
    if (summary_->sample_diagnostics.size() < kMaxSampleDiagnostics) {
      summary_->sample_diagnostics.push_back(diag);
    }
    return Status::OK();
  }

 private:
  const std::string& path_;
  const int64_t line_;
  const LoadOptions& options_;
  LoadSummary* summary_;
};

// Reads `path` whole and calls `visit(diag, row)` on each data line (not
// blank, not a '#' comment) with its fields and the diagnostics of its
// 1-based line number, counting it in summary->lines_parsed and checking
// options.run_context every kLinesPerContextCheck lines. Stops at the
// first non-OK status. Fault point: "graph_io.load" (fires once per file,
// before the read).
template <typename Visit>
Status ForEachDataLine(const std::string& path, const LoadOptions& options,
                       LoadSummary* summary, const Visit& visit) {
  if (fault::ShouldFail("graph_io.load")) {
    return Status::IoError("injected fault at graph_io.load opening " + path);
  }
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  std::string_view rest = raw.value();
  Row row;
  for (int64_t line = 1; !rest.empty(); ++line) {
    const std::string_view text = rest.substr(0, rest.find('\n'));
    rest.remove_prefix(std::min(text.size() + 1, rest.size()));
    row.clear();
    ForEachField(text, [&](std::string_view f) {
      row.push_back({f, static_cast<int>(f.data() - text.data()) + 1});
    });
    if (row.empty() || row[0].text[0] == '#') continue;
    if (++summary->lines_parsed % kLinesPerContextCheck == 0) {
      COANE_RETURN_IF_STOPPED(options.run_context, "graph_io.load");
    }
    LineDiagnostics diag(path, line, options, summary);
    COANE_RETURN_IF_ERROR(visit(diag, row));
  }
  return Status::OK();
}

// Parses `field` as a node id in [0, limit). A bad id flags the line and
// returns false, with the policy's verdict in `*verdict`.
bool CheckNodeId(LineDiagnostics& diag, const Field& field, int64_t limit,
                 int64_t* id, Status* verdict) {
  bool overflow = false;
  if (!ParseId(field.text, id, &overflow)) {
    *verdict = overflow ? diag.Flag(field,
                                    "node id " + Quoted(field) + " overflows",
                                    &LoadSummary::out_of_range_ids,
                                    StatusCode::kOutOfRange)
                        : diag.Flag(field,
                                    "bad node id " + Quoted(field) +
                                        " (not an integer)",
                                    &LoadSummary::bad_tokens);
    return false;
  }
  if (*id < 0 || *id >= limit) {
    *verdict = diag.Flag(field,
                         "node id " + std::string(field.text) +
                             " out of range [0, " + std::to_string(limit) +
                             ")",
                         &LoadSummary::out_of_range_ids,
                         StatusCode::kOutOfRange);
    return false;
  }
  return true;
}

// Ids must fit NodeId (int32) and stay under the configured node cap.
int64_t NodeIdLimit(const LoadOptions& options) {
  return options.max_nodes > 0
             ? std::min<int64_t>(options.max_nodes,
                                 std::numeric_limits<NodeId>::max())
             : std::numeric_limits<NodeId>::max();
}

}  // namespace

std::string LoadSummary::ToString() const {
  std::ostringstream out;
  out << "loaded " << edges_loaded << " edges";
  if (attributes_loaded > 0) out << ", " << attributes_loaded << " attributes";
  if (labels_loaded > 0) out << ", " << labels_loaded << " labels";
  if (duplicate_edges > 0) out << "; " << duplicate_edges << " duplicate edge(s) merged";
  if (duplicate_attributes > 0) {
    out << "; " << duplicate_attributes << " duplicate attribute(s) merged";
  }
  if (missing_attr_cells > 0 || nodes_missing_attrs > 0 ||
      injected_attr_drops > 0) {
    out << "; missing attrs (cells " << missing_attr_cells << ", nodes "
        << nodes_missing_attrs << ", injected drops " << injected_attr_drops
        << ")";
  }
  if (quarantined_lines > 0) {
    out << "; quarantined " << quarantined_lines << " line(s)"
        << " (bad tokens " << bad_tokens
        << ", self-loops " << self_loops
        << ", out-of-range ids " << out_of_range_ids
        << ", non-finite values " << non_finite_values
        << ", non-positive weights " << nonpositive_weights
        << ", attr-dim mismatches " << attr_dim_mismatches << ")";
  }
  return out.str();
}

Result<Graph> LoadAttributedGraph(const std::string& edges_path,
                                  const std::string& attributes_path,
                                  const std::string& labels_path,
                                  int64_t num_nodes,
                                  int64_t num_attributes) {
  LoadOptions options;
  options.num_nodes = num_nodes;
  options.num_attributes = num_attributes;
  return LoadAttributedGraph(edges_path, attributes_path, labels_path,
                             options, nullptr);
}

Result<Graph> LoadAttributedGraph(const std::string& edges_path,
                                  const std::string& attributes_path,
                                  const std::string& labels_path,
                                  const LoadOptions& options,
                                  LoadSummary* out_summary) {
  LoadSummary local_summary;
  LoadSummary* summary = out_summary != nullptr ? out_summary : &local_summary;
  *summary = LoadSummary();

  const int64_t id_limit = NodeIdLimit(options);
  if (options.num_nodes > id_limit) {
    return Status::ResourceExhausted(
        "requested num_nodes " + std::to_string(options.num_nodes) +
        " exceeds the max_nodes cap of " + std::to_string(id_limit));
  }
  const int64_t attr_limit =
      options.max_attr_dim > 0 ? options.max_attr_dim
                               : std::numeric_limits<int64_t>::max();
  // A declared attribute dimension is a contract: indices at or past it
  // are dimension mismatches, not silent growth.
  const int64_t declared_attr_dim =
      options.num_attributes > 0
          ? std::min(options.num_attributes, attr_limit)
          : attr_limit;
  if (options.num_attributes > attr_limit) {
    return Status::ResourceExhausted(
        "requested num_attributes " + std::to_string(options.num_attributes) +
        " exceeds the max_attr_dim cap of " + std::to_string(attr_limit));
  }

  // --- Edges.
  std::vector<Edge> edges;
  int64_t max_node = -1;
  std::unordered_set<uint64_t> seen_edges;
  COANE_RETURN_IF_ERROR(ForEachDataLine(
      edges_path, options, summary,
      [&](LineDiagnostics& diag, const Row& row) -> Status {
        if (row.size() < 2 || row.size() > 3) {
          return diag.Flag(row[0],
                           "edge line needs 2 or 3 fields, got " +
                               std::to_string(row.size()),
                           &LoadSummary::bad_tokens);
        }
        Status verdict;
        int64_t src = 0, dst = 0;
        if (!CheckNodeId(diag, row[0], id_limit, &src, &verdict) ||
            !CheckNodeId(diag, row[1], id_limit, &dst, &verdict)) {
          return verdict;
        }
        if (src == dst) {
          return diag.Flag(row[0],
                           "self-loop on node " + std::to_string(src),
                           &LoadSummary::self_loops);
        }
        float w = 1.0f;
        if (row.size() == 3) {
          double wv = 0.0;
          bool finite = false;
          if (!ParseDouble(row[2].text, &wv, &finite)) {
            return diag.Flag(row[2], "bad weight " + Quoted(row[2]),
                             &LoadSummary::bad_tokens);
          }
          if (!finite) {
            return diag.Flag(row[2],
                             "non-finite weight " + Quoted(row[2]),
                             &LoadSummary::non_finite_values);
          }
          if (wv <= 0.0) {
            return diag.Flag(row[2],
                             "non-positive weight " + Quoted(row[2]),
                             &LoadSummary::nonpositive_weights);
          }
          w = static_cast<float>(wv);
        }
        const uint64_t key =
            (static_cast<uint64_t>(std::min(src, dst)) << 32) |
            static_cast<uint64_t>(std::max(src, dst));
        if (!seen_edges.insert(key).second) ++summary->duplicate_edges;
        edges.push_back(
            {static_cast<NodeId>(src), static_cast<NodeId>(dst), w});
        ++summary->edges_loaded;
        max_node = std::max(max_node, std::max(src, dst));
        return Status::OK();
      }));
  // A declared node count is a contract: attribute and label ids past it
  // (and past every edge endpoint) are out of range. Without one, isolated
  // nodes may appear only in the attribute or label file, so the count
  // resolves to max id + 1 over all three files once they are read.
  const int64_t node_limit = options.num_nodes > 0
                                 ? std::max(options.num_nodes, max_node + 1)
                                 : id_limit;

  // --- Attributes. Missing observations are first-class data here: a
  // `nan` value or an empty trailing cell ("node index" with no value)
  // records a masked cell instead of quarantining the line, and a node
  // that never appears gets an unobserved mask row. Only *corrupt* values
  // (inf, unparsable tokens) go through the bad-line policy.
  std::vector<SparseMatrix::Triplet> triplets;
  // Cell keys are (node << 32 | col); attribute indices are capped far
  // below 2^32 in practice so the packing is collision-free.
  std::unordered_set<uint64_t> value_cells;
  std::unordered_set<uint64_t> marker_cells;
  std::vector<uint8_t> node_in_file;
  int64_t max_attr = -1;
  if (!attributes_path.empty()) {
    COANE_RETURN_IF_ERROR(ForEachDataLine(
        attributes_path, options, summary,
        [&](LineDiagnostics& diag, const Row& row) -> Status {
          if (row.size() != 3 && row.size() != 2) {
            return diag.Flag(
                row[0],
                "attribute line needs 'node index value' (or 'node index' "
                "for a missing cell), got " +
                    std::to_string(row.size()) + " field(s)",
                &LoadSummary::bad_tokens);
          }
          Status verdict;
          int64_t node = 0, attr = 0;
          if (!CheckNodeId(diag, row[0], node_limit, &node,
                           &verdict)) {
            return verdict;
          }
          bool overflow = false;
          if (!ParseId(row[1].text, &attr, &overflow) || attr < 0) {
            return diag.Flag(row[1],
                             "bad attribute index " + Quoted(row[1]),
                             overflow ? &LoadSummary::out_of_range_ids
                                      : &LoadSummary::bad_tokens,
                             overflow ? StatusCode::kOutOfRange
                                      : StatusCode::kInvalidArgument);
          }
          if (attr >= declared_attr_dim) {
            return diag.Flag(
                row[1],
                "attribute index " + std::to_string(attr) +
                    " outside the declared/capped dimension " +
                    std::to_string(declared_attr_dim),
                &LoadSummary::attr_dim_mismatches, StatusCode::kOutOfRange);
          }
          bool is_missing = row.size() == 2;  // empty trailing cell
          double value = 0.0;
          if (!is_missing) {
            bool finite = false;
            if (!ParseDouble(row[2].text, &value, &finite)) {
              return diag.Flag(row[2],
                               "bad attribute value " + Quoted(row[2]),
                               &LoadSummary::bad_tokens);
            }
            if (!finite) {
              // nan is an explicit "this observation is missing" marker;
              // inf / overflow is corruption, not missingness.
              if (!std::isnan(value)) {
                return diag.Flag(row[2],
                                 "non-finite attribute value " +
                                     Quoted(row[2]),
                                 &LoadSummary::non_finite_values);
              }
              is_missing = true;
            }
          }
          const uint64_t key = (static_cast<uint64_t>(node) << 32) |
                               (static_cast<uint64_t>(attr) & 0xFFFFFFFFULL);
          if (node >= static_cast<int64_t>(node_in_file.size())) {
            node_in_file.resize(static_cast<size_t>(node) + 1, 0);
          }
          node_in_file[static_cast<size_t>(node)] = 1;
          max_node = std::max(max_node, node);
          max_attr = std::max(max_attr, attr);
          if (is_missing) {
            // A value for the same cell wins over a missing marker, in
            // either order; the contradiction is counted as a duplicate.
            if (value_cells.count(key) != 0 ||
                !marker_cells.insert(key).second) {
              ++summary->duplicate_attributes;
            } else {
              ++summary->missing_attr_cells;
            }
            return Status::OK();
          }
          if (value_cells.count(key) != 0 || marker_cells.count(key) != 0) {
            ++summary->duplicate_attributes;
          }
          value_cells.insert(key);
          triplets.push_back({node, attr, static_cast<float>(value)});
          ++summary->attributes_loaded;
          return Status::OK();
        }));
  }

  // --- Labels.
  std::vector<int32_t> labels;
  if (!labels_path.empty()) {
    auto loaded = LoadLabels(labels_path,
                             options.num_nodes > 0 ? node_limit : 0,
                             options, summary);
    if (!loaded.ok()) return loaded.status();
    labels = std::move(loaded).ValueOrDie();
    max_node = std::max(max_node, static_cast<int64_t>(labels.size()) - 1);
  }

  const int64_t resolved_nodes = std::max(options.num_nodes, max_node + 1);
  GraphBuilder builder(resolved_nodes);
  builder.AddEdges(edges);
  if (!attributes_path.empty()) {
    node_in_file.resize(static_cast<size_t>(resolved_nodes), 0);
    const int64_t resolved_attrs =
        std::max(options.num_attributes, max_attr + 1);
    if (resolved_attrs > 0) {
      // Node-level mask: a node the attribute file never mentions has an
      // unobserved row. The deterministic attr-drop fault (rate-armed,
      // keyed by node id — see fault::ArmRate) masks further rows here,
      // before imputation ever sees them.
      std::vector<uint8_t> observed(static_cast<size_t>(resolved_nodes), 1);
      std::vector<uint8_t> dropped(static_cast<size_t>(resolved_nodes), 0);
      for (int64_t v = 0; v < resolved_nodes; ++v) {
        if (node_in_file[static_cast<size_t>(v)] == 0) {
          observed[static_cast<size_t>(v)] = 0;
          ++summary->nodes_missing_attrs;
        }
      }
      for (int64_t v = 0; v < resolved_nodes; ++v) {
        if (observed[static_cast<size_t>(v)] != 0 &&
            fault::ShouldDrop("graph.attr_drop", static_cast<uint64_t>(v))) {
          observed[static_cast<size_t>(v)] = 0;
          dropped[static_cast<size_t>(v)] = 1;
          ++summary->injected_attr_drops;
        }
      }
      if (summary->injected_attr_drops > 0) {
        std::vector<SparseMatrix::Triplet> kept;
        kept.reserve(triplets.size());
        for (const SparseMatrix::Triplet& t : triplets) {
          if (dropped[static_cast<size_t>(t.row)] == 0) kept.push_back(t);
        }
        triplets = std::move(kept);
      }
      std::vector<MissingAttrCell> cells;
      cells.reserve(marker_cells.size());
      for (const uint64_t key : marker_cells) {
        const auto node = static_cast<NodeId>(key >> 32);
        if (value_cells.count(key) != 0) continue;  // value won later
        if (dropped[static_cast<size_t>(node)] != 0) continue;
        cells.push_back({node, static_cast<int64_t>(key & 0xFFFFFFFFULL)});
      }
      builder.SetAttributes(SparseMatrix::FromTriplets(
          resolved_nodes, resolved_attrs, std::move(triplets)));
      builder.SetAttrObserved(std::move(observed));
      builder.SetMissingAttrCells(std::move(cells));
    } else {
      builder.SetAttributes(SparseMatrix::FromTriplets(
          resolved_nodes, resolved_attrs, std::move(triplets)));
    }
  }

  if (!labels_path.empty()) {
    labels.resize(static_cast<size_t>(resolved_nodes), 0);
    builder.SetLabels(std::move(labels));
  }

  return std::move(builder).Build();
}

Result<std::vector<int32_t>> LoadLabels(const std::string& path,
                                        int64_t num_nodes,
                                        const LoadOptions& options,
                                        LoadSummary* summary) {
  LoadSummary local_summary;
  if (summary == nullptr) summary = &local_summary;
  const int64_t node_limit =
      num_nodes > 0 ? std::min(num_nodes, NodeIdLimit(options))
                    : NodeIdLimit(options);
  std::vector<int32_t> labels(
      static_cast<size_t>(num_nodes > 0 ? num_nodes : 0), 0);
  COANE_RETURN_IF_ERROR(ForEachDataLine(
      path, options, summary, [&](LineDiagnostics& diag, const Row& row) -> Status {
        if (row.size() != 2) {
          return diag.Flag(row[0],
                           "label line needs 'node label', got " +
                               std::to_string(row.size()) + " field(s)",
                           &LoadSummary::bad_tokens);
        }
        Status verdict;
        int64_t node = 0;
        if (!CheckNodeId(diag, row[0], node_limit, &node, &verdict)) {
          return verdict;
        }
        int64_t label = 0;
        bool overflow = false;
        if (!ParseId(row[1].text, &label, &overflow) || label < 0 ||
            label > std::numeric_limits<int32_t>::max()) {
          return diag.Flag(row[1],
                           "bad label " + Quoted(row[1]) +
                               " (labels are non-negative integers)",
                           &LoadSummary::bad_tokens);
        }
        if (node >= static_cast<int64_t>(labels.size())) {
          labels.resize(static_cast<size_t>(node) + 1, 0);
        }
        labels[static_cast<size_t>(node)] = static_cast<int32_t>(label);
        ++summary->labels_loaded;
        return Status::OK();
      }));
  return labels;
}

Status SaveAttributedGraph(const Graph& graph, const std::string& edges_path,
                           const std::string& attributes_path,
                           const std::string& labels_path) {
  // All three files go through WriteFileAtomic: a killed `generate` or
  // `train` never leaves a truncated file for a later run to consume.
  {
    std::string out = "# src dst weight\n";
    for (const Edge& e : graph.UndirectedEdges()) {
      out += std::to_string(e.src) + ' ' + std::to_string(e.dst);
      AppendFloat(&out, ' ', e.weight);
      out += '\n';
    }
    COANE_RETURN_IF_ERROR(WriteFileAtomic(edges_path, out, "graph_io.save"));
  }
  if (!attributes_path.empty() && graph.num_attributes() > 0) {
    std::string out = "# node attr_index value\n";
    for (int64_t v = 0; v < graph.num_nodes(); ++v) {
      for (const SparseEntry& e : graph.attributes().Row(v)) {
        out += std::to_string(v) + ' ' + std::to_string(e.col);
        AppendFloat(&out, ' ', e.value);
        out += '\n';
      }
    }
    COANE_RETURN_IF_ERROR(
        WriteFileAtomic(attributes_path, out, "graph_io.save"));
  }
  if (!labels_path.empty() && !graph.labels().empty()) {
    std::string out = "# node label\n";
    for (int64_t v = 0; v < graph.num_nodes(); ++v) {
      out += std::to_string(v) + ' ' +
             std::to_string(graph.labels()[static_cast<size_t>(v)]) + '\n';
    }
    COANE_RETURN_IF_ERROR(WriteFileAtomic(labels_path, out, "graph_io.save"));
  }
  return Status::OK();
}

Status SaveEmbeddings(const DenseMatrix& embeddings,
                      const std::string& path) {
  const int64_t cols = embeddings.cols();
  std::string out = "# node embedding[" + std::to_string(cols) + "]\n";
  // Room for a 20-digit id, 13 bytes a value and the footer: one buffer.
  out.reserve(64 + static_cast<size_t>(embeddings.rows() * (21 + 13 * cols)));
  for (int64_t i = 0; i < embeddings.rows(); ++i) {
    out += std::to_string(i);
    for (int64_t j = 0; j < cols; ++j) {
      AppendFloat(&out, ' ', embeddings.At(i, j));
    }
    out += '\n';
  }
  // Trailing CRC-32 footer over every byte above it, so a reader can
  // prove the floats it is about to consume are the floats that were
  // written. Readers of the legacy format skip it as a comment.
  AppendCrcFooter(&out);
  return WriteFileAtomic(path, out, "graph_io.save");
}

Result<DenseMatrix> LoadEmbeddings(const std::string& path) {
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();

  // A file that ends in a CRC footer is verified before any float is
  // parsed; files without one (hand-written, legacy) still load.
  std::vector<RecordLine> lines;
  COANE_RETURN_IF_ERROR(
      ForEachRecordLine(path, raw.value(), [&](const RecordLine& line) {
        const size_t first = line.text.find_first_not_of(" \t\n\v\f\r");
        if (first != line.text.npos && line.text[first] != '#') {
          lines.push_back(line);
        }
      }));
  if (lines.empty()) {
    return Status::InvalidArgument("empty embedding file " + path);
  }
  std::vector<std::string_view> row;
  const auto split = [&row](std::string_view text) {
    row.clear();
    ForEachField(text, [&row](std::string_view f) { row.push_back(f); });
  };
  split(lines[0].text);
  const int64_t dim = static_cast<int64_t>(row.size()) - 1;
  if (dim <= 0) {
    return RecordLineError(path, lines[0],
                           "embedding rows need >= 2 fields");
  }
  DenseMatrix m(static_cast<int64_t>(lines.size()), dim);
  // One row per line, so an id seen twice also means some id is missing.
  std::vector<uint8_t> seen(lines.size(), 0);
  for (size_t i = 0; i < lines.size(); ++i) {
    split(lines[i].text);
    if (static_cast<int64_t>(row.size()) != dim + 1) {
      return RecordLineError(path, lines[i],
                             "ragged row: " + std::to_string(row.size()) +
                                 " fields, expected " +
                                 std::to_string(dim + 1));
    }
    bool overflow = false;
    int64_t r = 0;
    if (!ParseId(row[0], &r, &overflow) || r < 0 || r >= m.rows()) {
      return RecordLineError(path, lines[i],
                             "node id '" + Shown(row[0]) +
                                 "' is not in [0, " +
                                 std::to_string(m.rows()) + ")");
    }
    if (seen[static_cast<size_t>(r)] != 0) {
      return RecordLineError(path, lines[i],
                             "node id " + std::string(row[0]) +
                                 " appears twice");
    }
    seen[static_cast<size_t>(r)] = 1;
    for (int64_t j = 0; j < dim; ++j) {
      const std::string_view token = row[static_cast<size_t>(j) + 1];
      double v = 0.0;
      if (!ParseValue(token, &v)) {
        return RecordLineError(path, lines[i],
                               "value '" + Shown(token) +
                                   "' is not a number");
      }
      // nan, inf and values past the float range would reach the matrix
      // as non-finite floats.
      const float f = static_cast<float>(v);
      if (!std::isfinite(f)) {
        return RecordLineError(path, lines[i],
                               "value '" + std::string(token) +
                                   "' is not a finite float");
      }
      m.At(r, j) = f;
    }
  }
  return m;
}

}  // namespace coane

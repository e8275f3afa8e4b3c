// In-memory span recorder and a one-line JSON writer for the benchmark.
//
// Spans are opened on the driving thread around calls into the library's
// public functions (each span wraps a whole call, including the parallel
// regions inside it), kept in memory, and written out when the run ends.
// Only the traced run creates one; untraced runs call the library directly.
#ifndef COANE_PERFBENCH_TRACE_H_
#define COANE_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  // "<layer>.<stage>", e.g. "nn.encode"
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;   // index of the enclosing span, -1 for a root span
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: opened by Tracer::Open, closed when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_->Close(index_); }

   private:
    Tracer* tracer_;
    int index_;
  };

  Scope Open(const char* name) {
    Span span;
    span.name = name;
    span.start_s = Now();
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, open_.back());
  }


  /// Total duration of the spans called `name` that lie under the span
  /// `ancestor` (any depth; -1 means anywhere).
  double Total(const std::string& name, int ancestor = -1) const {
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name && Under(static_cast<int>(i), ancestor)) {
        total += spans_[i].end_s - spans_[i].start_s;
      }
    }
    return total;
  }

  /// Index of the last span called `name`, or -1.
  int Last(const std::string& name) const {
    for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
      if (spans_[static_cast<size_t>(i)].name == name) return i;
    }
    return -1;
  }

  /// Self time per layer (the name before the first '.'): each span's
  /// duration minus the part its direct children cover.
  std::map<std::string, double> LayerSelfTimes() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      self[layer] += std::max(0.0, s.end_s - s.start_s - child[i]);
    }
    return self;
  }

  /// Sum of the durations of the leaf spans under `ancestor`.
  double LeafTotal(int ancestor) const {
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& s : spans_) {
      if (s.parent >= 0) has_child[static_cast<size_t>(s.parent)] = true;
    }
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (!has_child[i] && static_cast<int>(i) != ancestor &&
          Under(static_cast<int>(i), ancestor)) {
        total += spans_[i].end_s - spans_[i].start_s;
      }
    }
    return total;
  }

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"parent\": %d}\n",
                   i, s.name.c_str(), s.start_s * 1e6, s.end_s * 1e6,
                   s.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_s = Now();
    open_.pop_back();
  }
  bool Under(int i, int ancestor) const {
    if (ancestor < 0) return true;
    for (int p = spans_[static_cast<size_t>(i)].parent; p >= 0;
         p = spans_[static_cast<size_t>(p)].parent) {
      if (p == ancestor) return true;
    }
    return false;
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Builds the single JSON object a subcommand prints on its last line.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.9g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Raw(key, buf);
  }
  void Int(const std::string& key, int64_t value) {
    Raw(key, std::to_string(value));
  }
  void Bool(const std::string& key, bool value) {
    Raw(key, value ? "true" : "false");
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", values[i]);
      out += buf;
    }
    Raw(key, out + "]");
  }
  void Print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

/// Median of `v` (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile `q` in [0, 1] of `v` (0 when empty).
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace perfbench

#endif  // COANE_PERFBENCH_TRACE_H_

#include "common/fault_injection.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/string_utils.h"

namespace coane {
namespace fault {
namespace {

struct PointState {
  int hits = 0;          // ShouldFail/ShouldDrop calls seen so far
  bool armed = false;
  int trigger_hit = 0;   // 1-based hit index of the first failure
  int fail_count = 0;    // consecutive failing hits; negative = forever
  bool rate_armed = false;
  double rate = 0.0;     // fraction of keys ShouldDrop answers true for
  uint64_t rate_seed = 0;
};

std::mutex& Mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, PointState>& Points() {
  static std::map<std::string, PointState> points;
  return points;
}

}  // namespace

void Arm(const std::string& point, int trigger_hit, int fail_count) {
  std::lock_guard<std::mutex> lock(Mutex());
  PointState& s = Points()[point];
  s.hits = 0;
  s.armed = true;
  s.trigger_hit = trigger_hit;
  s.fail_count = fail_count;
}

void ArmRate(const std::string& point, double rate, uint64_t seed) {
  std::lock_guard<std::mutex> lock(Mutex());
  PointState& s = Points()[point];
  s.hits = 0;
  s.rate_armed = true;
  s.rate = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  s.rate_seed = seed;
}

void Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(Mutex());
  auto it = Points().find(point);
  if (it != Points().end()) {
    it->second.armed = false;
    it->second.rate_armed = false;
  }
}

void Reset() {
  std::lock_guard<std::mutex> lock(Mutex());
  Points().clear();
}

int HitCount(const std::string& point) {
  std::lock_guard<std::mutex> lock(Mutex());
  auto it = Points().find(point);
  return it != Points().end() ? it->second.hits : 0;
}

void ArmTransient(const std::string& point, int trigger_hit,
                  int fail_count) {
  Arm(point, trigger_hit, fail_count);
}

void ArmPermanent(const std::string& point, int trigger_hit) {
  Arm(point, trigger_hit, /*fail_count=*/-1);
}

Status ArmFromEnv(const char* spec) {
  if (spec == nullptr) spec = std::getenv("COANE_FAULT");
  if (spec == nullptr || *spec == '\0') return Status::OK();

  // Parse everything before arming anything, so a malformed spec is
  // all-or-nothing.
  struct ParsedSpec {
    std::string point;
    int trigger_hit = 0;
    int fail_count = 0;  // negative = permanent
    bool is_rate = false;
    double rate = 0.0;
    uint64_t seed = 0;
  };
  std::vector<ParsedSpec> parsed;
  for (const std::string& raw : Split(spec, ',')) {
    const std::string token = Trim(raw);
    if (token.empty()) continue;
    const size_t at = token.find('@');
    if (at == std::string::npos || at == 0) {
      return Status::InvalidArgument(
          "COANE_FAULT token '" + token + "' is not point@hit[xN] or point@pR[sS]");
    }
    ParsedSpec p;
    p.point = token.substr(0, at);
    std::string rest = token.substr(at + 1);
    if (!rest.empty() && rest[0] == 'p') {
      // Rate spec: p<rate>[s<seed>], e.g. p0.3s42.
      p.is_rate = true;
      std::string rate_part = rest.substr(1);
      const size_t s = rate_part.find('s');
      if (s != std::string::npos) {
        const std::string seed_part = rate_part.substr(s + 1);
        rate_part = rate_part.substr(0, s);
        if (!flags::ParseWhole(seed_part, &p.seed)) {
          return Status::InvalidArgument(
              "COANE_FAULT token '" + token + "' has a bad rate seed");
        }
      }
      char* end = nullptr;
      p.rate = std::strtod(rate_part.c_str(), &end);
      if (rate_part.empty() || end != rate_part.c_str() + rate_part.size() ||
          !(p.rate >= 0.0 && p.rate <= 1.0)) {
        return Status::InvalidArgument(
            "COANE_FAULT token '" + token + "' has a bad rate (want [0, 1])");
      }
      parsed.push_back(std::move(p));
      continue;
    }
    p.fail_count = 1;
    const size_t x = rest.find('x');
    if (x != std::string::npos) {
      const std::string count = rest.substr(x + 1);
      rest = rest.substr(0, x);
      if (count == "*") {
        p.fail_count = -1;
      } else {
        if (!flags::ParseWhole(count, &p.fail_count) || p.fail_count < 1) {
          return Status::InvalidArgument(
              "COANE_FAULT token '" + token + "' has a bad fail count");
        }
      }
    }
    if (!flags::ParseWhole(rest, &p.trigger_hit) || p.trigger_hit < 1) {
      return Status::InvalidArgument(
          "COANE_FAULT token '" + token + "' has a bad trigger hit");
    }
    parsed.push_back(std::move(p));
  }
  for (const ParsedSpec& p : parsed) {
    if (p.is_rate) {
      ArmRate(p.point, p.rate, p.seed);
    } else {
      Arm(p.point, p.trigger_hit, p.fail_count);
    }
  }
  return Status::OK();
}

bool RateDecision(double rate, uint64_t seed, uint64_t key) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // SplitMix64 finalizer over seed ^ key: a high-quality 64-bit mix whose
  // top 53 bits give a uniform double in [0, 1). Pure function of the
  // inputs — the whole determinism contract of rate faults rests here.
  uint64_t z = seed ^ (key + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double u =
      static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  return u < rate;
}

bool ShouldDrop(const std::string& point, uint64_t key) {
  double rate = 0.0;
  uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(Mutex());
    PointState& s = Points()[point];
    s.hits += 1;
    if (!s.rate_armed) return false;
    rate = s.rate;
    seed = s.rate_seed;
  }
  return RateDecision(rate, seed, key);
}

bool ShouldFail(const std::string& point) {
  std::lock_guard<std::mutex> lock(Mutex());
  PointState& s = Points()[point];
  s.hits += 1;
  if (!s.armed || s.hits < s.trigger_hit) return false;
  return s.fail_count < 0 || s.hits < s.trigger_hit + s.fail_count;
}

}  // namespace fault
}  // namespace coane

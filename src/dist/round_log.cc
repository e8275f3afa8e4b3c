#include "dist/round_log.h"

#include <algorithm>
#include <string_view>

#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/record_file.h"
#include "common/string_utils.h"

namespace coane {
namespace dist {
namespace {

constexpr char kHeaderPrefix[] = "COANE-ROUNDS v1 ";

std::string ShardCsv(const std::vector<int>& shards) {
  if (shards.empty()) return "-";
  std::string out;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(shards[i]);
  }
  return out;
}

bool ParseShardCsv(const std::string& csv, std::vector<int>* out) {
  out->clear();
  if (csv == "-") return true;
  for (const std::string& field : Split(csv, ',')) {
    int shard = 0;
    if (!flags::ParseWhole(field, &shard)) return false;
    out->push_back(shard);
  }
  return true;
}

bool SortedUnique(const std::vector<int>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

std::string Render(uint64_t plan_fingerprint,
                   const std::vector<RoundRecord>& rounds) {
  std::string out = std::string(kHeaderPrefix) + Hex64(plan_fingerprint) +
                    "\n";
  for (const RoundRecord& r : rounds) {
    out += std::to_string(r.round) + "\t" + std::to_string(r.end_epoch) +
           "\t" + ShardCsv(r.committed) + "\t" + ShardCsv(r.missing) +
           "\t" + (r.degraded ? "1" : "0") + "\t" +
           Hex32(r.merged_model_crc) + "\t" +
           Hex32(r.merged_embeddings_crc) + "\n";
  }
  AppendCrcFooter(&out);
  return out;
}

}  // namespace

Result<RoundLog> RoundLog::Load(const std::string& path,
                                uint64_t plan_fingerprint) {
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  std::string_view header_value;
  auto body = ReadRecordBody(path, raw.value(), kHeaderPrefix, &header_value);
  if (!body.ok()) return body.status();
  uint64_t recorded_fp = 0;
  if (!ParseHex64(header_value, &recorded_fp)) {
    return Status::DataLoss(path + ":1: unparsable plan fingerprint");
  }
  if (recorded_fp != plan_fingerprint) {
    return Status::FailedPrecondition(
        path + " belongs to plan " + Hex64(recorded_fp) +
        ", this run is plan " + Hex64(plan_fingerprint));
  }

  RoundLog log(plan_fingerprint);
  for (const RecordLine& line : body.value()) {
    const std::vector<std::string> fields = Split(line.text, '\t');
    RoundRecord r;
    int degraded = 0;
    if (fields.size() != 7 || !flags::ParseWhole(fields[0], &r.round) ||
        !flags::ParseWhole(fields[1], &r.end_epoch) ||
        !ParseShardCsv(fields[2], &r.committed) ||
        !ParseShardCsv(fields[3], &r.missing) ||
        !flags::ParseWhole(fields[4], &degraded) ||
        !ParseHex32(fields[5], &r.merged_model_crc) ||
        !ParseHex32(fields[6], &r.merged_embeddings_crc)) {
      return RecordLineError(path, line,
                             "malformed round line '" +
                                 std::string(line.text) + "'");
    }
    r.degraded = degraded != 0;
    if (r.round != log.next_round()) {
      return RecordLineError(path, line,
                             "round sequence broken at round " +
                                 std::to_string(r.round) + " (expected " +
                                 std::to_string(log.next_round()) + ")");
    }
    log.rounds_.push_back(std::move(r));
  }
  return log;
}

Status RoundLog::Commit(const RoundRecord& record,
                        const std::string& path) {
  if (record.round != next_round()) {
    return Status::FailedPrecondition(
        "stale round sequence: commit for round " +
        std::to_string(record.round) + ", log expects round " +
        std::to_string(next_round()));
  }
  if (record.committed.empty()) {
    return Status::InvalidArgument(
        "a round cannot commit with zero shards");
  }
  if (!SortedUnique(record.committed) || !SortedUnique(record.missing)) {
    return Status::InvalidArgument(
        "round record shard lists must be sorted and unique");
  }
  for (int shard : record.missing) {
    if (std::binary_search(record.committed.begin(),
                           record.committed.end(), shard)) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) +
          " is both committed and missing");
    }
  }
  rounds_.push_back(record);
  const Status st = WriteFileAtomic(
      path, Render(plan_fingerprint_, rounds_), "dist.roundlog_write");
  if (!st.ok()) rounds_.pop_back();  // keep memory consistent with disk
  return st;
}

}  // namespace dist
}  // namespace coane

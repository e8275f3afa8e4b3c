#include "serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "core/artifact_manifest.h"
#include "graph/graph_io.h"
#include "serve/brute_force_index.h"
#include "stream/provenance.h"

namespace coane {
namespace serve {

bool Snapshot::IsUnobserved(int64_t id) const {
  return std::binary_search(unobserved.begin(), unobserved.end(), id);
}

Result<std::shared_ptr<const Snapshot>> BuildSnapshot(
    const std::string& embeddings_path, const SnapshotOptions& options,
    uint64_t sequence, const RunContext* ctx) {
  COANE_RETURN_IF_STOPPED(ctx, "serve.snapshot_build");

  // Trust gate first: the artifact must match what the trainer's manifest
  // recorded before any of its bytes are interpreted.
  if (!options.manifest_path.empty()) {
    COANE_RETURN_IF_ERROR(VerifyArtifactAgainstManifest(
        options.manifest_path, "embeddings", embeddings_path));
  }

  // The strict reader checks the CRC footer before it parses a float and
  // rejects every defective row as DataLoss naming path:line.
  auto embeddings = LoadEmbeddings(embeddings_path);
  if (!embeddings.ok()) return embeddings.status();
  auto store = std::make_shared<const EmbeddingStore>(
      std::move(embeddings).ValueOrDie());

  auto snapshot = std::make_shared<Snapshot>();
  snapshot->store = store;
  snapshot->sequence = sequence;
  snapshot->source_path = embeddings_path;

  // Stream provenance rides next to the artifact. A *corrupt* sidecar
  // rejects the snapshot — provenance that fails its CRC must not be
  // silently dropped (the artifact would serve with its unobserved set
  // and log position erased); a merely absent sidecar is a static
  // pipeline and serves without provenance.
  const std::string pub_path =
      stream::PublishInfoPathFor(embeddings_path);
  if (PathExists(pub_path)) {
    auto info = stream::LoadPublishInfo(pub_path);
    if (!info.ok()) return info.status();
    snapshot->has_provenance = true;
    snapshot->log_seq = info.value().log_seq;
    snapshot->published_unix_ms = info.value().created_unix_ms;
    snapshot->trained_policy =
        MissingAttrPolicyName(info.value().missing_attrs);
    snapshot->unobserved.assign(info.value().unobserved.begin(),
                                info.value().unobserved.end());
  }
  if (options.index_kind == "exact") {
    snapshot->index =
        std::make_shared<const BruteForceIndex>(store, options.metric);
  } else if (options.index_kind == "ivf") {
    auto index = IvfIndex::Build(store, options.metric, options.ivf, ctx);
    if (!index.ok()) return index.status();
    snapshot->index = std::shared_ptr<const KnnIndex>(
        std::move(index).ValueOrDie());
  } else {
    return Status::InvalidArgument("unknown index kind '" +
                                   options.index_kind +
                                   "' (expected exact or ivf)");
  }
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

std::shared_ptr<const Snapshot> SnapshotRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Status SnapshotRegistry::Install(std::shared_ptr<const Snapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot install a null snapshot");
  }
  if (fault::ShouldFail("serve.swap")) {
    return Status::IoError("injected fault at serve.swap for " +
                           snapshot->source_path);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // NextSequence() and Install() are separate calls, so two concurrent
    // publishes can finish out of order: the build holding sequence N
    // must not overwrite the already-installed N+1. The loser's snapshot
    // is simply dropped; the newer generation keeps serving.
    if (current_ != nullptr && snapshot->sequence <= current_->sequence) {
      return Status::FailedPrecondition(
          "snapshot sequence " + std::to_string(snapshot->sequence) +
          " is stale: generation " + std::to_string(current_->sequence) +
          " is already live");
    }
    // Freshness gate on the mutation-log axis: a publisher replaying an
    // old artifact (or a lagging publisher racing a fresh one) must not
    // roll served embeddings back to an earlier log position. Equal
    // positions pass — republishing the same generation is idempotent.
    if (current_ != nullptr && current_->has_provenance &&
        snapshot->has_provenance &&
        snapshot->log_seq < current_->log_seq) {
      return Status::FailedPrecondition(
          "snapshot log position " + std::to_string(snapshot->log_seq) +
          " is behind the live generation's " +
          std::to_string(current_->log_seq) +
          " — stale artifact rejected");
    }
    current_ = std::move(snapshot);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace serve
}  // namespace coane

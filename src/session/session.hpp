// HostSession — the owned handle for a loaded host (ISSUE 8 / ROADMAP
// "incremental ECO matching").
//
// Everything the matcher shares across repeated searches of one host —
// the flattened CircuitGraph, the --core=csr SoA arrays, and the
// HostLabelCache of Phase I label sequences — used to be built ad hoc by
// every consumer (CLI one-shot, serve `load`, extract per-tier, bench
// mains). A HostSession owns the whole bundle:
//
//   HostSession session = HostSession::build(netlist);
//   MatchReport r = find_in_session(pattern, session, options);
//   session.apply(parse_delta(delta_text));   // ECO edit, O(change) labels
//   MatchReport r2 = find_in_session(pattern, session, options);
//
// apply() is ATOMIC (apply-or-rollback): every fallible step — delta
// application, graph rebuild, capacity check, cache rebase — runs on
// copies; the session swaps them in only after all of them succeed, so a
// thrown Error (or an injected "session.patch" fault) leaves the session
// byte-identical to before. The CSR core is refilled IN PLACE into its
// retained storage; capacity beyond the new live size is the spill that
// spill_bytes() reports and that compaction reclaims once it crosses
// SessionOptions::spill_compaction_bytes.
//
// The invariant contract: a patched session produces byte-identical
// reports/traces/JSON to a cold HostSession::build over the edited
// netlist, in both cores, at every --jobs. Under SUBG_AUDIT this is
// enforced structurally on every apply (A17: patched CSR equals a cold
// CSR build; A18: rebased label rounds equal a cold recompute — see
// HostLabelCache::rebase).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "analyze/analyze.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/csr_core.hpp"
#include "match/host_labels.hpp"
#include "match/matcher.hpp"
#include "netlist/netlist.hpp"
#include "session/delta.hpp"

namespace subg {

struct SessionOptions {
  /// Core layout the session maintains. kCsr builds (and patches) the flat
  /// SoA core; kLegacy skips it — matches then walk the CircuitGraph.
  CoreMode core = CoreMode::kCsr;
  /// Edge budget for the csr core. Defaults to the real offset limit of
  /// the configured width (32-bit unless built with -DSUBG_CSR_OFFSET64=ON;
  /// see graph/csr_core.hpp); tests lower it to exercise the overflow path (core dropped
  /// with a kTruncated core_status(), matching falls back to legacy, and
  /// patches keep working) without a four-billion-edge host.
  std::size_t max_core_edges = CsrCore::kMaxEdges;
  /// Compact the core (release retained-but-unused storage) when a patch
  /// leaves more spill than this many bytes.
  std::size_t spill_compaction_bytes = std::size_t{1} << 20;
};

/// What one apply() did — the per-patch numbers behind the eco.* counters
/// and the serve `patch` response.
struct ApplyStats {
  /// Device add/remove ops applied ("eco.patched_devices").
  std::uint64_t patched_devices = 0;
  /// Net add/remove ops applied.
  std::uint64_t patched_nets = 0;
  /// Rename ops applied.
  std::uint64_t renames = 0;
  /// Label-cache entries recomputed by the rebase — the dirty-cone size,
  /// which scales with the EDIT, not the host ("eco.invalidated_labels").
  std::uint64_t invalidated_labels = 0;
  /// 1 when this patch triggered a core compaction ("eco.compactions").
  std::uint64_t compactions = 0;
};

class HostSession {
 public:
  /// Build a session over (a copy of) `netlist`. Pass by value: callers
  /// that are done with their netlist move it in. When the csr core does
  /// not fit max_core_edges the session still builds — core() is null,
  /// core_status() carries the structured refusal, and configure() routes
  /// matches through the legacy core.
  [[nodiscard]] static HostSession build(Netlist netlist,
                                         SessionOptions options = {});

  HostSession(HostSession&&) = default;
  HostSession& operator=(HostSession&&) = default;
  HostSession(const HostSession&) = delete;
  HostSession& operator=(const HostSession&) = delete;

  /// Apply an ECO delta atomically. Throws subg::Error (delta inapplicable,
  /// "delta line N: ..." messages) or fault::InjectedFault ("session.patch")
  /// with the session unchanged. On success the graph/core/cache are
  /// rebased and the per-patch stats returned.
  ApplyStats apply(const NetlistDelta& delta);

  /// Wire this session's shared host structures into match options:
  /// phase1.host_cache and host_core point at the session, and core falls
  /// back to kLegacy when the session holds no csr core. NOTE: because the
  /// cache is session-owned, Phase I does not fold its reuse totals into
  /// metrics — callers that want them call
  /// record_cache_stats(metrics, session.cache().stats()) themselves.
  void configure(MatchOptions& options);

  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }
  [[nodiscard]] const CircuitGraph& graph() const { return *graph_; }
  /// Null when SessionOptions::core == kLegacy or the host overflows the
  /// edge budget (see core_status()).
  [[nodiscard]] const CsrCore* core() const { return core_.get(); }
  [[nodiscard]] HostLabelCache& cache() { return *cache_; }
  /// Session-owned supplemental path labels over the host (src/analyze),
  /// shared across matches via configure() and REBASED through apply() —
  /// only anchors inside the patch's dirty cone recompute, the rest copy
  /// through the vertex pedigree (audit A19 pins the rebase against a cold
  /// rebuild).
  [[nodiscard]] const analyze::PathLabels& path_labels() const {
    return *paths_;
  }
  /// kComplete, or the kTruncated refusal explaining the missing core.
  [[nodiscard]] const RunStatus& core_status() const { return core_status_; }
  [[nodiscard]] const SessionOptions& options() const { return options_; }

  // --- session generation (serve `status`, eco.* counters) -------------
  [[nodiscard]] std::uint64_t patch_count() const { return patch_count_; }
  /// Retained-but-unused core storage right now (0 without a core).
  [[nodiscard]] std::size_t spill_bytes() const {
    return core_ ? core_->spill_bytes() : 0;
  }
  /// Patch ordinal (1-based) of the most recent compaction; 0 = never.
  [[nodiscard]] std::uint64_t last_compaction() const {
    return last_compaction_;
  }
  /// Cumulative apply() stats since build().
  [[nodiscard]] const ApplyStats& totals() const { return totals_; }

 private:
  HostSession() = default;

  SessionOptions options_;
  std::unique_ptr<Netlist> netlist_;
  std::unique_ptr<CircuitGraph> graph_;
  std::unique_ptr<CsrCore> core_;
  std::unique_ptr<HostLabelCache> cache_;
  std::unique_ptr<analyze::PathLabels> paths_;
  RunStatus core_status_;
  std::uint64_t patch_count_ = 0;
  std::uint64_t last_compaction_ = 0;
  ApplyStats totals_;
};

/// Match `pattern` against the session's host, sharing its graph, core,
/// and label cache. The session-aware replacement for constructing a
/// SubgraphMatcher per call; the old constructors remain as thin shims for
/// callers that have no session.
[[nodiscard]] MatchReport find_in_session(const Netlist& pattern,
                                          HostSession& session,
                                          MatchOptions options = {});

/// Fold one apply()'s stats into the eco.* counters (eco.patched_devices,
/// eco.patched_nets, eco.renames, eco.invalidated_labels, eco.compactions).
/// Null-safe, like record_cache_stats.
void record_eco_stats(obs::Metrics* metrics, const ApplyStats& stats);

}  // namespace subg

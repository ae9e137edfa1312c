#include "session/session.hpp"

#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace subg {

namespace {

/// Build a fresh core when the graph fits `max_edges`; otherwise leave the
/// core null and report the refusal. Shared by build() and apply().
RunStatus core_capacity(const CircuitGraph& graph, std::size_t max_edges) {
  return CsrCore::capacity_status(graph, max_edges);
}

}  // namespace

HostSession HostSession::build(Netlist netlist, SessionOptions options) {
  HostSession session;
  session.options_ = options;
  session.netlist_ = std::make_unique<Netlist>(std::move(netlist));
  session.graph_ = std::make_unique<CircuitGraph>(*session.netlist_);
  session.cache_ = std::make_unique<HostLabelCache>(*session.graph_);
  if (options.core == CoreMode::kCsr) {
    session.core_status_ = core_capacity(*session.graph_, options.max_core_edges);
    if (session.core_status_.complete()) {
      session.core_ = std::make_unique<CsrCore>(*session.graph_);
    }
  }
  // Supplemental path labels, built once per session and shared by every
  // match (configure() wires them into MatchOptions::host_path_labels).
  // The core overload is preferred only as the faster walk; counts are
  // bit-identical either way.
  session.paths_ = std::make_unique<analyze::PathLabels>(
      session.core_ != nullptr
          ? analyze::build_path_labels(*session.core_, *session.netlist_,
                                       analyze::Side::kHost)
          : analyze::build_path_labels(*session.graph_, *session.netlist_,
                                       analyze::Side::kHost));
  return session;
}

ApplyStats HostSession::apply(const NetlistDelta& delta) {
  // Every fallible step runs on copies; nothing the session owns is
  // touched until the commit below, so a throw anywhere in this block —
  // including the injected "session.patch" fault — rolls back for free.
  auto new_netlist = std::make_unique<Netlist>(*netlist_);
  const DeltaEffects fx = apply_delta(*new_netlist, delta);
  if constexpr (kAuditEnabled) {
    new_netlist->validate();
  }
  auto new_graph = std::make_unique<CircuitGraph>(*new_netlist);

  // Vertex pedigree across the edit: resolve every post-edit entity back
  // to its pre-edit id by name (through the rename map), skipping fresh
  // ones. Unmatched vertices on either side map to kNoVertex.
  const Vertex kNone = HostLabelCache::kNoVertex;
  std::vector<Vertex> old_to_new(graph_->vertex_count(), kNone);
  std::vector<Vertex> new_to_old(new_graph->vertex_count(), kNone);
  for (std::uint32_t d = 0; d < new_netlist->device_count(); ++d) {
    const std::string& name = new_netlist->device_name(DeviceId(d));
    if (fx.fresh_devices.contains(name)) continue;
    const auto pre = fx.device_pre_name.find(name);
    const auto old_id = netlist_->find_device(
        pre == fx.device_pre_name.end() ? name : pre->second);
    if (!old_id) continue;
    const Vertex ov = graph_->vertex_of(*old_id);
    const Vertex nv = new_graph->vertex_of(DeviceId(d));
    old_to_new[ov] = nv;
    new_to_old[nv] = ov;
  }
  for (std::uint32_t n = 0; n < new_netlist->net_count(); ++n) {
    const std::string& name = new_netlist->net_name(NetId(n));
    if (fx.fresh_nets.contains(name)) continue;
    const auto pre = fx.net_pre_name.find(name);
    const auto old_id = netlist_->find_net(
        pre == fx.net_pre_name.end() ? name : pre->second);
    if (!old_id) continue;
    const Vertex ov = graph_->vertex_of(*old_id);
    const Vertex nv = new_graph->vertex_of(NetId(n));
    old_to_new[ov] = nv;
    new_to_old[nv] = ov;
  }

  // Dirty-cone seed, in new-graph vertices: nets whose pin set changed,
  // plus renamed entities (a renamed GLOBAL net changes its fixed label —
  // special_net_label hashes the name; renamed devices are included
  // defensively, their labels are name-independent). Fresh vertices seed
  // implicitly inside rebase (no old value to copy).
  std::vector<Vertex> dirty_seed;
  for (const std::string& name : fx.touched_nets) {
    if (const auto id = new_netlist->find_net(name)) {
      dirty_seed.push_back(new_graph->vertex_of(*id));
    }
  }
  for (const auto& [name, pre] : fx.net_pre_name) {
    if (const auto id = new_netlist->find_net(name)) {
      dirty_seed.push_back(new_graph->vertex_of(*id));
    }
  }
  for (const auto& [name, pre] : fx.device_pre_name) {
    if (const auto id = new_netlist->find_device(name)) {
      dirty_seed.push_back(new_graph->vertex_of(*id));
    }
  }

  // Capacity is re-checked against the edited graph: a patch pushing the
  // edge count past the budget drops the core (structured kTruncated
  // status, legacy matching) instead of corrupting or aborting.
  RunStatus new_core_status;
  bool want_core = false;
  if (options_.core == CoreMode::kCsr) {
    new_core_status = core_capacity(*new_graph, options_.max_core_edges);
    want_core = new_core_status.complete();
  }

  ApplyStats stats;
  stats.patched_devices = fx.device_ops;
  stats.patched_nets = fx.net_ops;
  stats.renames = fx.rename_ops;
  auto new_cache = cache_->rebase(*new_graph, old_to_new, new_to_old,
                                  dirty_seed, &stats.invalidated_labels);
  // Path-label rebase rides the same pedigree and dirty seeds: every
  // changed edge is incident to a touched net or a fresh vertex, so the
  // radius-walk_steps cone around the seeds covers every anchor whose
  // closed-walk ball saw the edit; the rest copy through new_to_old.
  auto new_paths = std::make_unique<analyze::PathLabels>(
      analyze::rebase_path_labels(*paths_, *new_graph, *new_netlist,
                                  new_to_old, dirty_seed));

  SUBG_FAULT_POINT("session.patch");

  // --- commit (infallible modulo bad_alloc) ---------------------------
  netlist_ = std::move(new_netlist);
  graph_ = std::move(new_graph);
  cache_ = std::move(new_cache);
  paths_ = std::move(new_paths);
  core_status_ = new_core_status;
  if (want_core) {
    if (core_ != nullptr) {
      core_->rebuild(*graph_);  // refill retained storage (the spill path)
    } else {
      core_ = std::make_unique<CsrCore>(*graph_);
    }
  } else {
    core_.reset();
  }
  ++patch_count_;
  if (core_ != nullptr &&
      core_->spill_bytes() > options_.spill_compaction_bytes) {
    core_->shrink();
    stats.compactions = 1;
    last_compaction_ = patch_count_;
  }
  if constexpr (kAuditEnabled) {
    if (core_ != nullptr) {
      // A17 — patched-core fidelity: the in-place refill must be
      // element-wise identical to a cold flatten of the edited graph.
      const CsrCore cold(*graph_);
      SUBG_AUDIT_MSG(core_->structurally_equal(cold),
                     "session audit (A17): patched csr core diverged from "
                     "a cold rebuild of the edited host");
    }
    // A19 — path-label rebase fidelity: dirty-cone recompute + pedigree
    // copy must be bit-identical to a cold build over the edited host.
    const analyze::PathLabels cold_paths =
        analyze::build_path_labels(*graph_, *netlist_, analyze::Side::kHost);
    SUBG_AUDIT_MSG(paths_->counts == cold_paths.counts &&
                       paths_->vertex_count == cold_paths.vertex_count,
                   "session audit (A19): rebased path labels diverged from "
                   "a cold rebuild of the edited host");
  }
  totals_.patched_devices += stats.patched_devices;
  totals_.patched_nets += stats.patched_nets;
  totals_.renames += stats.renames;
  totals_.invalidated_labels += stats.invalidated_labels;
  totals_.compactions += stats.compactions;
  return stats;
}

void HostSession::configure(MatchOptions& options) {
  options.phase1.host_cache = cache_.get();
  options.host_core = core_.get();
  options.host_path_labels = paths_.get();
  if (core_ == nullptr) options.core = CoreMode::kLegacy;
}

MatchReport find_in_session(const Netlist& pattern, HostSession& session,
                            MatchOptions options) {
  session.configure(options);
  SubgraphMatcher matcher(pattern, session.graph(), options);
  return matcher.find_all();
}

void record_eco_stats(obs::Metrics* metrics, const ApplyStats& stats) {
  obs::count(metrics, "eco.patched_devices", stats.patched_devices);
  obs::count(metrics, "eco.patched_nets", stats.patched_nets);
  obs::count(metrics, "eco.renames", stats.renames);
  obs::count(metrics, "eco.invalidated_labels", stats.invalidated_labels);
  obs::count(metrics, "eco.compactions", stats.compactions);
}

}  // namespace subg

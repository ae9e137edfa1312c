#include "match/phase1.hpp"

#include <algorithm>
#include <unordered_map>

#include "graph/csr_core.hpp"
#include "match/host_labels.hpp"
#include "obs/metrics.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace subg {

namespace {

/// Vertex kind selector for the alternating rounds.
enum class Kind { kNet, kDevice };

struct Phase1State {
  const CircuitGraph& s;
  const CircuitGraph& g;
  HostLabelCache& cache;
  ThreadPool* pool = nullptr;
  /// Non-null = the csr core layout (flat SoA edge walks, arena-backed
  /// censuses); null = the legacy CircuitGraph walks. Labels, prunes, and
  /// every counter come out identical either way.
  const CsrCore* s_core = nullptr;
  const CsrCore* g_core = nullptr;
  /// Per-round scratch for the flat censuses (csr mode only); reserved
  /// once, reset per census, never grown mid-round.
  Arena arena;
  /// Pattern-side edge contributions computed (work counter; counted by
  /// the same rule in both cores).
  std::uint64_t relabel_ops = 0;
  HostLabelCache::RailKey rail_key;

  std::vector<Label> label_s;
  std::vector<Label> scratch_s;
  std::vector<bool> valid_s;  // pattern: valid (not corrupt)
  /// Host: still a possible image of a valid vertex.
  std::vector<std::uint8_t> possible_g;
  /// Host vertices treated as special for THIS match: a host net is special
  /// iff the pattern declares a same-named global (paper §IV.A — special
  /// signals are matched by name). A host rail that the pattern does not
  /// name is an ordinary net here.
  std::vector<bool> special_g;
  /// Host labels after `round` relabeling steps (shared via the cache).
  const std::vector<Label>* label_g;
  std::size_t round = 0;

  explicit Phase1State(const CircuitGraph& pattern, const CircuitGraph& host,
                       HostLabelCache& host_cache, const Phase1Options& options)
      : s(pattern),
        g(host),
        cache(host_cache),
        pool(options.pool),
        s_core(options.pattern_core),
        g_core(options.host_core) {
    if (s_core != nullptr) {
      SUBG_CHECK_MSG(&s_core->graph() == &s,
                     "pattern csr core was built over a different graph");
      // Worst case one census holds live at a time: the sorted label
      // column plus the unique-label column and two count columns, all
      // bounded by the pattern vertex count (plus alignment slack).
      arena.reserve(s.vertex_count() *
                        (2 * sizeof(Label) + 2 * sizeof(std::uint32_t)) +
                    4 * alignof(std::max_align_t));
    }
    label_s.resize(s.vertex_count());
    for (Vertex v = 0; v < s.vertex_count(); ++v) label_s[v] = s.initial_label(v);
    scratch_s = label_s;

    // Resolve the pattern's rails against the host by name; they form the
    // cache key and are excluded from candidacy.
    special_g.assign(g.vertex_count(), false);
    const Netlist& pnl = s.netlist();
    const Netlist& hnl = g.netlist();
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (!s.is_special(v)) continue;
      auto hn = hnl.find_net(pnl.net_name(s.net_of(v)));
      if (hn.has_value()) {
        const Vertex hv = g.vertex_of(*hn);
        special_g[hv] = true;
        rail_key.emplace_back(hv, s.initial_label(v));
      }
    }
    // Sort AND deduplicate: two pattern specials resolving to the same host
    // net (aliased globals) must not leave a duplicate entry in the cache
    // key — that would miss the cache and double-apply the rail override.
    HostLabelCache::normalize(rail_key);
    label_g = &cache.labels(rail_key, 0, pool, g_core);

    valid_s.assign(s.vertex_count(), true);
    for (NetId port : pnl.ports()) {
      if (!pnl.is_global(port)) valid_s[s.vertex_of(port)] = false;
    }
    // Host: special nets are matched by name, never by candidate search.
    possible_g.assign(g.vertex_count(), 1);
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (special_g[v]) possible_g[v] = 0;
    }
  }

  [[nodiscard]] static bool kind_of(const CircuitGraph& graph, Vertex v,
                                    Kind kind) {
    return kind == Kind::kDevice ? graph.is_device(v) : graph.is_net(v);
  }

  /// Non-special pattern vertices still valid (both kinds) — the auditor's
  /// monotonicity census.
  [[nodiscard]] std::size_t valid_count() const {
    std::size_t n = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (!s.is_special(v) && valid_s[v]) ++n;
    }
    return n;
  }

  /// One synchronous relabeling round over all vertices of `kind`.
  /// Pattern vertices whose neighbor (of the other kind) is corrupt become
  /// corrupt themselves instead of being relabeled; host labels advance via
  /// the shared cache.
  void relabel_round(Kind kind) {
    std::size_t audit_valid_before = 0;
    if constexpr (kAuditEnabled) audit_valid_before = valid_count();
    std::uint64_t ops = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (!kind_of(s, v, kind) || s.is_special(v) || !valid_s[v]) continue;
      Label sum = 0;
      bool corrupt = false;
      if (s_core != nullptr) {
        const std::span<const Vertex> to = s_core->neighbors(v);
        const std::span<const Label> coeff = s_core->coefficients(v);
        for (std::size_t i = 0; i < to.size(); ++i) {
          if (!valid_s[to[i]]) {
            corrupt = true;
            break;
          }
          sum += edge_contribution(coeff[i], label_s[to[i]]);
          ++ops;
        }
      } else {
        for (const auto& e : s.edges(v)) {
          if (!valid_s[e.to]) {
            corrupt = true;
            break;
          }
          sum += edge_contribution(e.coefficient, label_s[e.to]);
          ++ops;
        }
      }
      if (corrupt) {
        valid_s[v] = false;
      } else {
        scratch_s[v] = relabel(label_s[v], sum);
      }
    }
    relabel_ops += ops;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        label_s[v] = scratch_s[v];
      }
    }
    if constexpr (kAuditEnabled) {
      // Monotonicity (paper §III): corruption only ever spreads; a round
      // never resurrects a corrupt vertex.
      SUBG_AUDIT_MSG(valid_count() <= audit_valid_before,
                     "phase1 audit: valid set grew during a relabel round");
      // Corrupt-bit propagation: a vertex of `kind` that survived this
      // round can have no corrupt neighbor (neighbors are the other kind
      // and did not change validity this round).
      for (Vertex v = 0; v < s.vertex_count(); ++v) {
        if (!kind_of(s, v, kind) || s.is_special(v) || !valid_s[v]) continue;
        for (const auto& e : s.edges(v)) {
          SUBG_AUDIT_MSG(valid_s[e.to],
                         "phase1 audit: valid vertex kept a corrupt neighbor");
        }
      }
    }
    ++round;
    label_g = &cache.labels(rail_key, round, pool, g_core);
  }

  [[nodiscard]] bool any_valid(Kind kind) const {
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) return true;
    }
    return false;
  }

  /// (valid vertex count, distinct label count) over valid pattern vertices
  /// of a kind — used to detect that refinement has stabilized (patterns
  /// with few or no ports may never corrupt a whole side). The csr mode
  /// sorts an arena column instead of filling a hash map; the pair is a
  /// pure function of the labels either way.
  [[nodiscard]] std::pair<std::size_t, std::size_t> refinement_shape(
      Kind kind) {
    if (s_core != nullptr) {
      arena.reset();
      std::span<Label> labels = arena.take<Label>(s.vertex_count());
      std::size_t count = 0;
      for (Vertex v = 0; v < s.vertex_count(); ++v) {
        if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
          labels[count++] = label_s[v];
        }
      }
      std::sort(labels.begin(), labels.begin() + count);
      std::size_t distinct = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (i == 0 || labels[i] != labels[i - 1]) ++distinct;
      }
      return {count, distinct};
    }
    std::unordered_map<Label, std::size_t> parts;
    std::size_t count = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        ++count;
        ++parts[label_s[v]];
      }
    }
    return {count, parts.size()};
  }

  bool prune = true;
  /// Host vertices pruned by the consistency checks, for the metrics sink.
  std::size_t pruned = 0;

  /// Prune host vertices whose label matches no valid pattern partition;
  /// detect infeasibility when a host partition is smaller than its valid
  /// pattern twin. Returns false on infeasibility. Both paths prune the
  /// same host vertices and reach the same verdict: the censuses are pure
  /// functions of the label multisets, independent of container.
  [[nodiscard]] bool consistency(Kind kind) {
    if (!prune) return true;
    if (s_core != nullptr) return consistency_flat(kind);
    std::unordered_map<Label, std::size_t> s_count;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        ++s_count[label_s[v]];
      }
    }
    std::unordered_map<Label, std::size_t> g_count;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (!kind_of(g, v, kind) || !possible_g[v]) continue;
      auto it = s_count.find((*label_g)[v]);
      if (it == s_count.end()) {
        possible_g[v] = false;  // cannot be the image of any valid vertex
        ++pruned;
      } else {
        ++g_count[(*label_g)[v]];
      }
    }
    for (const auto& [lbl, need] : s_count) {
      auto it = g_count.find(lbl);
      const std::size_t have = it == g_count.end() ? 0 : it->second;
      if (have < need) return false;  // no induced subgraph can exist
    }
    return true;
  }

  /// csr-mode consistency: the pattern census is a sorted arena column
  /// (run-length counted), the host sweep binary-searches it. Patterns are
  /// tiny, so the search column lives in L1 where a per-round hash map
  /// would churn the heap.
  [[nodiscard]] bool consistency_flat(Kind kind) {
    arena.reset();
    std::span<Label> labels = arena.take<Label>(s.vertex_count());
    std::size_t n = 0;
    for (Vertex v = 0; v < s.vertex_count(); ++v) {
      if (kind_of(s, v, kind) && !s.is_special(v) && valid_s[v]) {
        labels[n++] = label_s[v];
      }
    }
    std::sort(labels.begin(), labels.begin() + n);
    std::span<Label> uniq = arena.take<Label>(n);
    std::span<std::uint32_t> s_cnt = arena.take<std::uint32_t>(n);
    std::span<std::uint32_t> g_cnt = arena.take<std::uint32_t>(n);
    std::size_t u = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (u == 0 || uniq[u - 1] != labels[i]) {
        uniq[u] = labels[i];
        s_cnt[u] = 0;
        g_cnt[u] = 0;
        ++u;
      }
      ++s_cnt[u - 1];
    }
    const Label* ubegin = uniq.data();
    const Label* uend = uniq.data() + u;
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (!kind_of(g, v, kind) || !possible_g[v]) continue;
      const Label l = (*label_g)[v];
      const Label* it = std::lower_bound(ubegin, uend, l);
      if (it == uend || *it != l) {
        possible_g[v] = false;  // cannot be the image of any valid vertex
        ++pruned;
      } else {
        ++g_cnt[static_cast<std::size_t>(it - ubegin)];
      }
    }
    for (std::size_t i = 0; i < u; ++i) {
      if (g_cnt[i] < s_cnt[i]) return false;  // no induced subgraph can exist
    }
    return true;
  }
};

}  // namespace

namespace {

/// The refinement loop proper; `st`'s prune counter survives the return so
/// the wrapper can report it to the metrics sink on every exit path.
Phase1Result run_phase1_refinement(const CircuitGraph& pattern,
                                   const CircuitGraph& host,
                                   const Phase1Options& options,
                                   Phase1State& st) {
  Phase1Result result;

  // Initial consistency pass over both sides of the bipartition (Fig 4:
  // degree-/type-infeasible host vertices are pruned before any round).
  if (!st.consistency(Kind::kNet) || !st.consistency(Kind::kDevice)) {
    result.feasible = false;
    return result;
  }

  auto prev_shape = std::make_pair(st.refinement_shape(Kind::kNet),
                                   st.refinement_shape(Kind::kDevice));
  while (result.rounds < options.max_rounds) {
    if (options.budget.interrupted(&result.outcome)) break;
    st.relabel_round(Kind::kNet);
    ++result.rounds;
    if (!st.any_valid(Kind::kNet)) break;
    if (!st.consistency(Kind::kNet)) {
      result.feasible = false;
      return result;
    }

    st.relabel_round(Kind::kDevice);
    ++result.rounds;
    if (!st.any_valid(Kind::kDevice)) break;
    if (!st.consistency(Kind::kDevice)) {
      result.feasible = false;
      return result;
    }

    // No vertex corrupted and no partition split this full cycle ⇒
    // refinement is stable and further rounds cannot sharpen the CV.
    auto shape = std::make_pair(st.refinement_shape(Kind::kNet),
                                st.refinement_shape(Kind::kDevice));
    if (shape == prev_shape) break;
    prev_shape = shape;
  }

  // Candidate-vector selection: for every label of a valid pattern vertex,
  // count eligible host vertices; pick the label with the smallest host
  // partition (least Phase II work). Ties break deterministically.
  std::unordered_map<Label, std::pair<std::size_t, Vertex>> s_parts;  // count, first
  for (Vertex v = 0; v < pattern.vertex_count(); ++v) {
    if (pattern.is_special(v) || !st.valid_s[v]) continue;
    auto [it, inserted] = s_parts.try_emplace(st.label_s[v], 1, v);
    if (!inserted) {
      ++it->second.first;
      it->second.second = std::min(it->second.second, v);
    }
  }
  SUBG_CHECK_MSG(!s_parts.empty(),
                 "phase I: no valid pattern vertices remain (pattern is all "
                 "ports/globals?)");

  const std::vector<Label>& label_g = *st.label_g;
  std::unordered_map<Label, std::size_t> g_count;
  for (Vertex v = 0; v < host.vertex_count(); ++v) {
    if (!st.possible_g[v]) continue;
    if (s_parts.contains(label_g[v])) ++g_count[label_g[v]];
  }

  bool found = false;
  Label best_label = 0;
  std::size_t best_g = 0, best_s = 0;
  for (const auto& [lbl, part] : s_parts) {
    auto it = g_count.find(lbl);
    const std::size_t have = it == g_count.end() ? 0 : it->second;
    if (have < part.first) {
      // Smaller host partition than pattern partition: infeasible.
      result.feasible = false;
      return result;
    }
    if (!found || have < best_g ||
        (have == best_g && (part.first < best_s ||
                            (part.first == best_s && lbl < best_label)))) {
      found = true;
      best_label = lbl;
      best_g = have;
      best_s = part.first;
    }
  }
  SUBG_CHECK(found);

  result.key = s_parts[best_label].second;
  result.key_is_device = pattern.is_device(result.key);
  result.candidates.reserve(best_g);
  for (Vertex v = 0; v < host.vertex_count(); ++v) {
    if (st.possible_g[v] && label_g[v] == best_label) {
      result.candidates.push_back(v);
    }
  }
  // Candidate-vector ⊆ host-partition consistency: the vector just built
  // must agree with the census taken above (two independent sweeps), be at
  // least as large as the pattern partition it images, and never contain a
  // by-name-matched special net (possible_g excludes them from round 0 and
  // is only ever cleared).
  SUBG_AUDIT_MSG(result.candidates.size() == best_g,
                 "phase1 audit: candidate vector disagrees with the host "
                 "partition census");
  SUBG_AUDIT_MSG(best_g >= best_s,
                 "phase1 audit: candidate vector smaller than its pattern "
                 "partition");
  if constexpr (kAuditEnabled) {
    for (Vertex v : result.candidates) {
      SUBG_AUDIT_MSG(!st.special_g[v],
                     "phase1 audit: special host net in the candidate vector");
    }
  }
  for (Vertex v = 0; v < pattern.vertex_count(); ++v) {
    if (!pattern.is_special(v) && st.valid_s[v]) ++result.valid_pattern_vertices;
  }
  for (Vertex v = 0; v < host.vertex_count(); ++v) {
    if (st.possible_g[v]) ++result.possible_host_vertices;
  }
  if (options.keep_labels) {
    result.pattern_labels = st.label_s;
    result.pattern_valid = st.valid_s;
    result.host_labels = *st.label_g;
  }

  SUBG_DEBUG("phase1: rounds=" << result.rounds << " cv=" << result.candidates.size()
                               << " key=" << pattern.vertex_name(result.key));
  return result;
}

}  // namespace

Phase1Result run_phase1(const CircuitGraph& pattern, const CircuitGraph& host,
                        const Phase1Options& options) {
  SUBG_FAULT_POINT("phase1");
  SUBG_CHECK_MSG(pattern.device_count() > 0, "pattern has no devices");

  // Fall back to a call-local cache when the caller does not share one.
  HostLabelCache local_cache(host);
  HostLabelCache& cache =
      options.host_cache != nullptr ? *options.host_cache : local_cache;
  SUBG_CHECK_MSG(&cache.host() == &host,
                 "host label cache was built over a different host graph");

  Phase1State st(pattern, host, cache, options);
  st.prune = options.consistency_checks;

  Phase1Result result = run_phase1_refinement(pattern, host, options, st);
  result.relabel_ops = st.relabel_ops;

  if (options.metrics != nullptr) {
    obs::Metrics& m = *options.metrics;
    m.add("phase1.runs");
    m.add("phase1.rounds", result.rounds);
    m.add("phase1.relabel_ops", result.relabel_ops);
    m.add("phase1.consistency_prunes", st.pruned);
    if (st.s_core != nullptr) {
      m.gauge("csr.arena_bytes",
              static_cast<double>(st.arena.high_water_bytes()));
    }
    if (result.outcome != RunOutcome::kComplete) m.add("phase1.interrupted");
    if (!result.feasible) {
      m.add("phase1.infeasible");
    } else {
      m.add("phase1.candidates", result.candidates.size());
      // Corruption front: non-special pattern vertices reached by the
      // corruption spread from the ports when refinement stopped.
      std::size_t matchable = 0;
      for (Vertex v = 0; v < pattern.vertex_count(); ++v) {
        if (!pattern.is_special(v)) ++matchable;
      }
      m.add("phase1.corrupt_pattern_vertices",
            matchable - result.valid_pattern_vertices);
      m.gauge("phase1.max_candidates",
              static_cast<double>(result.candidates.size()));
    }
    // A caller-shared cache spans many runs; its totals are recorded once
    // by whoever owns it (see extract_gates). The local fallback cache
    // dies here, so its reuse numbers are recorded now.
    if (options.host_cache == nullptr) {
      record_cache_stats(&m, local_cache.stats());
    }
  }
  return result;
}

}  // namespace subg

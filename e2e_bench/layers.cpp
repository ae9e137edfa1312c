// Layer helpers shared by the workloads: the load path and per-layer
// attribution.
#include <optional>

#include "analyze/analyze.hpp"
#include "common.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/csr_core.hpp"
#include "netlist/design.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "spice/spice.hpp"

namespace subg::e2e {

/// Read, parse and flatten a SPICE deck, with one span per layer. The
/// Design and the deck text die inside the top-level "load" span, as they
/// do in the CLI's own loader.
Netlist load_deck(Tracer& tracer, const std::string& path, double* mb_per_s) {
  Tracer::Scope load(tracer, "load");
  std::string text;
  {
    Tracer::Scope s(tracer, "load.read");
    text = read_file(path);
  }
  const double t0 = now_s();
  Design design = [&] {
    Tracer::Scope s(tracer, "spice.parse");
    return spice::read_string(text);
  }();
  if (mb_per_s != nullptr) {
    *mb_per_s = static_cast<double>(text.size()) / 1e6 / (now_s() - t0);
  }
  Tracer::Scope s(tracer, "netlist.flatten");
  return design.flatten(serve::default_top(design, ""));
}

void record_match_layers(Record& record, const obs::Snapshot& snapshot) {
  auto counter = [&](const char* name) {
    return static_cast<double>(snapshot.counter(name));
  };
  auto span = [&](const char* name) {
    const auto it = snapshot.spans.find(name);
    return it == snapshot.spans.end() ? 0.0 : it->second.seconds;
  };
  const double tried = counter("phase2.seeds_tried");
  record.counts["phase1.rounds"] = counter("phase1.rounds");
  record.counts["phase1.candidates"] = counter("phase1.candidates");
  record.counts["phase1.host_relabel_ops"] =
      counter("phase1.label_cache.relabel_ops");
  record.counts["phase2.expansion_ops"] = counter("phase2.expansion_ops");
  record.counts["phase2.passes"] = counter("phase2.passes");
  record.counts["phase2.guesses"] = counter("phase2.ambiguity_guesses");
  record.counts["phase2.backtracks"] = counter("phase2.backtracks");
  record.counts["phase2.yield"] =
      tried > 0 ? counter("match.instances") / tried : 0.0;
  record.counts["analyze.infeasible_shortcuts"] =
      counter("match.infeasible_shortcuts");
  record.counts["analyze.path_label_prunes"] =
      counter("phase2.path_label_prunes");
  record.counts["analyze.symmetry_skips"] = counter("phase2.symmetry_skips");
  record.layers["label_cache.hits"] = counter("phase1.label_cache.hits");
  record.layers["label_cache.misses"] = counter("phase1.label_cache.misses");
  record.layers["phase1.s"] = span("phase1.seconds");
  record.layers["phase2.s"] = span("phase2.seconds");
  record.layers["phase2.ns_per_candidate"] =
      tried > 0 ? span("phase2.seconds") * 1e9 / tried : 0.0;
}

void probe_session_parts(Record& record, Tracer& tracer, const Netlist& host) {
  std::optional<CircuitGraph> graph;
  std::optional<CsrCore> core;
  {
    Tracer::Scope probe(tracer, "probe");
    {
      Tracer::Scope s(tracer, "probe.circuit_graph");
      graph.emplace(host);
    }
    {
      Tracer::Scope s(tracer, "probe.csr");
      core.emplace(*graph);
    }
    Tracer::Scope s(tracer, "probe.host_path_labels");
    (void)analyze::build_path_labels(*core, host, analyze::Side::kHost);
  }
  record.layers["graph.circuit_graph_s"] =
      tracer.total_seconds("probe.circuit_graph");
  record.layers["graph.csr_s"] = tracer.total_seconds("probe.csr");
  record.layers["analyze.host_path_labels_s"] =
      tracer.total_seconds("probe.host_path_labels");
}

}  // namespace subg::e2e

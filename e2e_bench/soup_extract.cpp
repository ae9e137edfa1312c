// soup_extract: gate extraction of a logic_soup(20000, seed) deck with every
// library cell at jobs=2, producing the gate-level SPICE deck, as the CLI
// `extract` does. Set-up is deck read, parse, flatten, library parse and
// HostSession::build; the run is extract_gates, the deck render and write.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "extract/extract.hpp"
#include "gemini/gemini.hpp"
#include "netlist/design.hpp"
#include "obs/metrics.hpp"
#include "session/session.hpp"
#include "spice/spice.hpp"

namespace subg::e2e {

namespace {

/// Every .subckt of the library deck with ports and a body, flattened.
std::vector<extract::LibraryCell> load_library(const std::string& path) {
  const Design lib = spice::read_string(read_file(path));
  std::vector<extract::LibraryCell> cells;
  for (std::uint32_t m = 0; m < lib.module_count(); ++m) {
    const Module& mod = lib.module(ModuleId(m));
    if (mod.ports().empty() ||
        (mod.device_count() == 0 && mod.instance_count() == 0)) {
      continue;
    }
    cells.push_back(extract::LibraryCell{mod.name(), lib.flatten(mod.name())});
  }
  return cells;
}

/// Nets of `netlist` that are gate-level nets of the extraction output: the
/// anchors the expansion keeps by name. Everything else is cell-internal.
std::vector<bool> anchors(const Netlist& netlist, const Netlist& gates) {
  std::vector<bool> anchored(netlist.net_count());
  for (std::uint32_t n = 0; n < netlist.net_count(); ++n) {
    const auto g = gates.find_net(netlist.net_name(NetId(n)));
    anchored[n] = g.has_value() && gates.net_degree(*g) > 0;
  }
  return anchored;
}

/// One piece: devices joined through cell-internal nets, as a small netlist
/// whose anchor nets are globals (Gemini labels globals by name, so piece
/// isomorphism keeps every anchor fixed), plus a cheap bucketing key.
struct Piece {
  std::string key;
  Netlist netlist;
};

std::vector<Piece> pieces(const Netlist& netlist,
                          const std::vector<bool>& anchored) {
  const std::size_t devices = netlist.device_count();
  std::vector<std::uint32_t> root(devices);
  for (std::uint32_t d = 0; d < devices; ++d) root[d] = d;
  auto find = [&](std::uint32_t d) {
    while (root[d] != d) d = root[d] = root[root[d]];
    return d;
  };
  for (std::uint32_t n = 0; n < netlist.net_count(); ++n) {
    if (anchored[n]) continue;
    const auto pins = netlist.net_pins(NetId(n));
    for (std::size_t i = 1; i < pins.size(); ++i) {
      root[find(pins[i].device.value)] = find(pins[0].device.value);
    }
  }
  std::map<std::uint32_t, std::vector<std::uint32_t>> groups;
  for (std::uint32_t d = 0; d < devices; ++d) groups[find(d)].push_back(d);

  std::vector<Piece> out;
  out.reserve(groups.size());
  for (const auto& [group_root, members] : groups) {
    Piece piece{"", Netlist(netlist.catalog_ptr(), "piece")};
    std::map<std::uint32_t, NetId> net_map;
    std::vector<std::string> device_keys;
    for (std::uint32_t d : members) {
      const DeviceId id(d);
      const DeviceTypeInfo& type = netlist.device_type_info(id);
      std::vector<std::string> pin_keys;
      std::vector<NetId> pins;
      const auto device_pins = netlist.device_pins(id);
      for (std::size_t p = 0; p < device_pins.size(); ++p) {
        const NetId n = device_pins[p];
        auto it = net_map.find(n.value);
        if (it == net_map.end()) {
          NetId local;
          if (anchored[n.index()]) {
            local = piece.netlist.ensure_net(netlist.net_name(n));
            piece.netlist.mark_global(local);
          } else {
            local = piece.netlist.add_net();
          }
          it = net_map.emplace(n.value, local).first;
        }
        pins.push_back(it->second);
        pin_keys.push_back(std::to_string(type.pin_class[p]) + ":" +
                           (anchored[n.index()] ? netlist.net_name(n) : "*"));
      }
      piece.netlist.add_device(piece.netlist.catalog().require(type.name), pins);
      std::sort(pin_keys.begin(), pin_keys.end());
      std::string key = type.name;
      for (const std::string& k : pin_keys) key += " " + k;
      device_keys.push_back(std::move(key));
    }
    std::sort(device_keys.begin(), device_keys.end());
    for (const std::string& k : device_keys) piece.key += k + ";";
    out.push_back(std::move(piece));
  }
  return out;
}

/// Is `expanded` isomorphic to `input` with every gate-level net of `gates`
/// fixed by name? Both sides split into pieces at those nets; pieces pair
/// up by key and each pair must be Gemini-isomorphic. A full pairing is an
/// isomorphism of the whole: the pieces partition the devices and internal
/// nets, and every piece map fixes the shared anchors.
bool isomorphic_by_pieces(const Netlist& expanded, const Netlist& input,
                          const Netlist& gates) {
  if (expanded.device_count() != input.device_count() ||
      expanded.net_count() != input.net_count()) {
    return false;
  }
  std::vector<Piece> a = pieces(expanded, anchors(expanded, gates));
  std::vector<Piece> b = pieces(input, anchors(input, gates));
  if (a.size() != b.size()) return false;
  std::map<std::string, std::vector<Piece*>> unpaired;
  for (Piece& piece : b) unpaired[piece.key].push_back(&piece);
  for (const Piece& piece : a) {
    auto it = unpaired.find(piece.key);
    if (it == unpaired.end()) return false;
    std::vector<Piece*>& candidates = it->second;
    const auto match = std::find_if(
        candidates.begin(), candidates.end(), [&](const Piece* other) {
          return compare_netlists(piece.netlist, other->netlist).isomorphic;
        });
    if (match == candidates.end()) return false;
    candidates.erase(match);
  }
  return true;
}

}  // namespace

Record run_soup_extract(const RunArgs& args, Tracer& tracer) {
  Record r;
  double mb_per_s = 0;
  Netlist host = load_deck(tracer, args.inputs + "/host.sp", &mb_per_s);
  const std::vector<extract::LibraryCell> cells = [&] {
    Tracer::Scope s(tracer, "library.load");
    return load_library(args.inputs + "/library.sp");
  }();
  HostSession session = [&] {
    Tracer::Scope s(tracer, "session.build");
    return HostSession::build(std::move(host));
  }();
  r.setup_s = now_s();
  if (args.setup_only) {
    r.peak_rss_mb = peak_rss_mb();
    return r;
  }

  obs::Metrics metrics;
  extract::ExtractOptions options;
  options.match.jobs = 2;
  options.match.metrics = &metrics;
  const extract::ExtractResult result = [&] {
    Tracer::Scope s(tracer, "extract");
    return extract::extract_gates(session, cells, options);
  }();
  const std::string deck = [&] {
    Tracer::Scope s(tracer, "spice.write");
    return spice::write_string(result.netlist);
  }();
  {
    Tracer::Scope s(tracer, "report.write");
    write_file(args.out + "/gates.sp", deck);
  }
  const double run_end = now_s();
  r.run_s = run_end - r.setup_s;
  r.peak_rss_mb = peak_rss_mb();
  record_coverage(r, tracer, run_end);

  // Checks: every transistor lands in exactly one extracted cell, and the
  // gate deck expands back to a netlist isomorphic to the input, checked
  // piece by piece with Gemini. (One Gemini compare of the whole 110k-device
  // pair takes over a minute: 225 refinement rounds, 77 individuations.)
  const json::Value manifest = read_manifest(args.inputs);
  const std::uint64_t transistors = manifest.find("devices")->as_uint();
  std::uint64_t covered = 0;
  std::uint64_t instances = 0;
  double match_s = 0;
  for (const extract::ExtractReport::PerCell& per : result.report.cells) {
    for (const extract::LibraryCell& cell : cells) {
      if (cell.name == per.cell) {
        covered += per.instances * cell.pattern.device_count();
      }
    }
    instances += per.instances;
    match_s += per.seconds;
  }
  r.check(result.report.status.complete(), "soup_extract: sweep incomplete");
  r.check(covered == transistors,
          "soup_extract: cells cover " + std::to_string(covered) + " of " +
              std::to_string(transistors) + " transistors");
  r.check(result.report.unextracted_primitives == 0,
          "soup_extract: " +
              std::to_string(result.report.unextracted_primitives) +
              " primitives left unextracted");
  r.output_digest = digest(deck);
  if (!args.light_checks) {
    const Netlist expanded = extract::expand_gates(
        result.netlist, cells, session.netlist().catalog_ptr());
    r.check(isomorphic_by_pieces(expanded, session.netlist(), result.netlist),
            "soup_extract: expanded gate deck is not isomorphic to the input");
  }

  record_match_layers(r, metrics.collect());
  r.counts["netlist.devices"] =
      static_cast<double>(session.netlist().device_count());
  r.counts["netlist.nets"] = static_cast<double>(session.netlist().net_count());
  r.counts["graph.csr_bytes"] =
      session.core() != nullptr ? static_cast<double>(session.core()->bytes())
                                : 0.0;
  r.counts["report.bytes"] = static_cast<double>(deck.size());
  r.counts["extract.instances"] = static_cast<double>(instances);
  if (tracer.enabled()) {
    const double extract_s = tracer.total_seconds("extract");
    r.layers["spice.parse_s"] = tracer.self_seconds("spice.parse");
    r.layers["spice.mb_per_s"] = mb_per_s;
    r.layers["netlist.flatten_s"] = tracer.self_seconds("netlist.flatten");
    r.layers["session.build_s"] = tracer.self_seconds("session.build");
    r.layers["match.find_s"] = match_s;
    r.layers["extract.s"] = extract_s;
    r.layers["extract.match_s"] = match_s;
    r.layers["extract.rebuild_s"] = extract_s - match_s;
    r.layers["report.render_s"] = tracer.self_seconds("spice.write");
    probe_session_parts(r, tracer, session.netlist());
  }
  return r;
}

}  // namespace subg::e2e

// soc_find: a cold one-shot find of nand2 in the 1M-device soc_grid deck at
// jobs=1, rendered as the schema-v1 JSON document the CLI `find --json`
// prints. Set-up is deck read, parse, flatten, pattern load and
// HostSession::build; the run is the find, the render and the write.
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "netlist/design.hpp"
#include "obs/metrics.hpp"
#include "report/document.hpp"
#include "serve/protocol.hpp"
#include "session/session.hpp"
#include "spice/spice.hpp"

namespace subg::e2e {

Record run_soc_find(const RunArgs& args, Tracer& tracer) {
  Record r;
  double mb_per_s = 0;
  Netlist host = load_deck(tracer, args.inputs + "/host.sp", &mb_per_s);
  const Netlist pattern = [&] {
    Tracer::Scope s(tracer, "library.load");
    const Design lib = spice::read_string(read_file(args.inputs + "/library.sp"));
    return lib.flatten("nand2");
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
  MatchOptions options;
  options.jobs = 1;
  options.metrics = &metrics;
  const MatchReport report = [&] {
    Tracer::Scope s(tracer, "match.find");
    return find_in_session(pattern, session, options);
  }();
  std::size_t document_bytes = 0;
  {
    // The document streams straight into the output file, as the CLI
    // streams it to stdout.
    Tracer::Scope s(tracer, "report.render");
    report::Document doc("subgemini", "find");
    doc.set("pattern", serve::netlist_summary(pattern));
    doc.set("host", serve::netlist_summary(session.netlist()));
    doc.set("instances",
            serve::instances_json(pattern, session.netlist(), report));
    doc.set("report", report::to_json(report));
    std::ofstream out(args.out + "/find.json", std::ios::binary);
    doc.write(out);
    out.close();
    if (!out) throw std::runtime_error("cannot write find.json");
    document_bytes = std::filesystem::file_size(args.out + "/find.json");
  }
  const double run_end = now_s();
  r.run_s = run_end - r.setup_s;
  r.peak_rss_mb = peak_rss_mb();
  record_coverage(r, tracer, run_end);

  // Checks: the generator's placement count, and a complete sweep.
  const json::Value manifest = read_manifest(args.inputs);
  const std::uint64_t expected =
      manifest.find("expected_instances")->as_uint();
  r.check(report.status.complete(), "soc_find: sweep incomplete");
  r.check(report.count() == expected,
          "soc_find: " + std::to_string(report.count()) +
              " nand2 instances, construction placed " +
              std::to_string(expected));
  r.check(session.netlist().device_count() ==
              manifest.find("devices")->as_uint(),
          "soc_find: device count differs from the generated deck");

  record_cache_stats(&metrics, session.cache().stats());
  record_match_layers(r, metrics.collect());
  r.counts["netlist.devices"] =
      static_cast<double>(session.netlist().device_count());
  r.counts["netlist.nets"] = static_cast<double>(session.netlist().net_count());
  r.counts["graph.csr_bytes"] =
      session.core() != nullptr ? static_cast<double>(session.core()->bytes())
                                : 0.0;
  // Bytes rendered, with the two wall-clock members counted as one digit
  // each so the count repeats exactly.
  const std::size_t clock_bytes =
      json::Value(report.phase1_seconds).dump().size() +
      json::Value(report.phase2_seconds).dump().size();
  r.counts["report.bytes"] =
      static_cast<double>(document_bytes - clock_bytes + 2);
  if (tracer.enabled()) {
    r.layers["spice.parse_s"] = tracer.self_seconds("spice.parse");
    r.layers["spice.mb_per_s"] = mb_per_s;
    r.layers["netlist.flatten_s"] = tracer.self_seconds("netlist.flatten");
    r.layers["session.build_s"] = tracer.self_seconds("session.build");
    r.layers["match.find_s"] = tracer.self_seconds("match.find");
    r.layers["report.render_s"] = tracer.self_seconds("report.render");
    probe_session_parts(r, tracer, session.netlist());
  }
  return r;
}

}  // namespace subg::e2e

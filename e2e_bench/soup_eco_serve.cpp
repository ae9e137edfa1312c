// soup_eco_serve: a logic_soup(5000, seed) host loaded once into an
// in-process serve::Server (one worker, jobs=1), driven by one client in a
// closed loop with one request outstanding: the seeded script alternates
// `patch` (plant or remove one whole cell) and `find` requests. Set-up is
// the server's host load, up to its answer to a `status` request; the run
// is the script, each request timed from send until its response is read.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "netlist/design.hpp"
#include "obs/metrics.hpp"
#include "report/document.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "session/delta.hpp"
#include "session/session.hpp"
#include "spice/spice.hpp"
#include "util/json_parse.hpp"
#include "util/line_io.hpp"

namespace subg::e2e {

namespace {

struct Step {
  bool find = false;
  std::string pattern;     ///< find: pattern cell name
  std::uint64_t expect = 0;  ///< find: expected instance count
  std::string delta;       ///< patch: the edit script
  std::string request;     ///< the serve request line
};

std::vector<Step> read_script(const std::string& path) {
  std::vector<Step> steps;
  const std::string text = read_file(path);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    json::ParseResult parsed = json::parse(text.substr(pos, end - pos));
    if (!parsed.ok()) throw std::runtime_error("bad script: " + parsed.error);
    const json::Value& v = parsed.value;
    Step step;
    step.find = v.find("kind")->as_string() == "find";
    step.request = v.find("request")->as_string();
    if (step.find) {
      step.pattern = v.find("pattern")->as_string();
      step.expect = v.find("expect")->as_uint();
    } else {
      step.delta = v.find("delta")->as_string();
    }
    steps.push_back(std::move(step));
    pos = end + 1;
  }
  return steps;
}

/// The `find` result member a server builds for `report`.
json::Value find_result(const Netlist& pattern, const Netlist& host,
                        const MatchReport& report) {
  json::Value result = json::Value::object();
  result.set("pattern", serve::netlist_summary(pattern));
  result.set("host", serve::netlist_summary(host));
  result.set("instances", serve::instances_json(pattern, host, report));
  result.set("report", report::to_json(report));
  return result;
}

/// A find result with its wall-clock members zeroed, for byte comparison.
std::string timeless(json::Value result) {
  if (json::Value* report = result.find("report")) {
    report->set("phase1_seconds", 0);
    report->set("phase2_seconds", 0);
  }
  return result.dump(0);
}

Netlist parse_pattern(const std::string& request_line) {
  json::ParseResult parsed = json::parse(request_line);
  const Design design =
      spice::read_string(parsed.value.find("pattern")->as_string());
  return design.flatten(serve::default_top(design, ""));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Owns the two pipes between the client and the in-process server.
class Pipes {
 public:
  Pipes() {
    if (pipe(to_server_) != 0 || pipe(from_server_) != 0) {
      throw std::runtime_error("pipe() failed");
    }
  }
  ~Pipes() {
    for (int fd : {to_server_[0], to_server_[1], from_server_[0],
                   from_server_[1]}) {
      if (fd >= 0) close(fd);
    }
  }
  Pipes(const Pipes&) = delete;
  Pipes& operator=(const Pipes&) = delete;

  [[nodiscard]] int server_in() const { return to_server_[0]; }
  [[nodiscard]] int server_out() const { return from_server_[1]; }
  [[nodiscard]] int client_out() const { return to_server_[1]; }
  [[nodiscard]] int client_in() const { return from_server_[0]; }
  /// End of the conversation: the server sees EOF on its input, and a
  /// response it still writes fails (EPIPE) instead of blocking on a full
  /// pipe nobody reads.
  void hang_up() {
    for (int* fd : {&to_server_[1], &from_server_[0]}) {
      close(*fd);
      *fd = -1;
    }
  }

 private:
  int to_server_[2] = {-1, -1};
  int from_server_[2] = {-1, -1};
};

}  // namespace

Record run_soup_eco_serve(const RunArgs& args, Tracer& tracer) {
  Record r;
  const std::string host_path = args.inputs + "/host.sp";
  obs::Metrics metrics;
  Pipes pipes;
  serve::ServeOptions options;
  options.hosts.push_back({"soup", host_path, ""});
  options.workers = 1;
  options.jobs = 1;
  options.metrics = &metrics;
  options.max_request_bytes = std::size_t{1} << 24;
  options.in_fd = pipes.server_in();
  options.out_fd = pipes.server_out();
  serve::Server server(options);
  LineReader reader(pipes.client_in(), std::size_t{1} << 30);
  int server_code = -1;
  // Set when run() returns, so a client waiting on a server that stopped
  // early (say, on a host it could not load) gives up instead of hanging.
  std::atomic<bool> server_done{false};
  std::thread server_thread([&] {
    try {
      server_code = server.run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_driver: server: %s\n", e.what());
      server_code = 70;
    }
    server_done.store(true, std::memory_order_release);
  });

  auto roundtrip = [&](const std::string& line) {
    std::string response;
    if (!write_line(pipes.client_out(), line) ||
        reader.read_line(&response, &server_done, 50) !=
            LineReader::Status::kLine) {
      throw std::runtime_error("serve: no response");
    }
    json::ParseResult parsed = json::parse(response);
    if (!parsed.ok()) throw std::runtime_error("serve: bad response frame");
    return std::move(parsed.value);
  };
  auto finish = [&] {
    (void)write_line(pipes.client_out(), R"({"id":0,"op":"shutdown"})");
    pipes.hang_up();
    server_thread.join();
  };

  try {
    {
      Tracer::Scope s(tracer, "serve.load");
      const json::Value status = roundtrip(R"({"id":0,"op":"status"})");
      r.check(status.find("ok")->as_bool(), "soup_eco_serve: status failed");
    }
    r.setup_s = now_s();
    if (args.setup_only) {
      finish();
      r.peak_rss_mb = peak_rss_mb();
      return r;
    }

    const std::vector<Step> steps = read_script(args.inputs + "/script.jsonl");
    std::vector<json::Value> results(steps.size());
    std::vector<double> serve_ms(steps.size());
    std::uint64_t invalidated = 0;
    std::uint64_t patched_vertices = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const Step& step = steps[i];
      const double t0 = now_s();
      json::Value response = [&] {
        Tracer::Scope s(tracer, step.find ? "serve.find" : "serve.patch");
        return roundtrip(step.request);
      }();
      serve_ms[i] = (now_s() - t0) * 1e3;
      r.latency_ms[step.find ? "find" : "patch"].push_back(serve_ms[i]);
      const bool ok = response.find("ok")->as_bool();
      const json::Value* result = response.find("result");
      if (!ok || result == nullptr) {
        r.check(false, "soup_eco_serve: request " + std::to_string(i) +
                           " answered with an error frame");
        continue;
      }
      if (step.find) {
        const std::size_t found = result->find("instances")->elements().size();
        r.check(found == step.expect,
                "soup_eco_serve: find " + step.pattern + " at step " +
                    std::to_string(i) + " returned " + std::to_string(found) +
                    ", construction expects " + std::to_string(step.expect));
      } else {
        r.check(true, "");
        const json::Value* summary = result->find("summary");
        invalidated += result->find("eco")->find("invalidated_labels")->as_uint();
        patched_vertices += summary->find("devices")->as_uint() +
                            summary->find("nets")->as_uint();
      }
      results[i] = *result;
    }
    const double run_end = now_s();
    r.run_s = run_end - r.setup_s;
    finish();
    r.check(server_code == 0, "soup_eco_serve: server exited with code " +
                                  std::to_string(server_code));
    r.peak_rss_mb = peak_rss_mb();
    record_coverage(r, tracer, run_end);

    // Check: the last find of each pattern is byte-identical to the same
    // find on a cold HostSession::build of the final netlist, where the
    // final netlist is the deck with every patch replayed by apply_delta.
    Tracer untraced(false);
    Netlist final_netlist = load_deck(untraced, host_path);
    for (const Step& step : steps) {
      if (!step.find) (void)apply_delta(final_netlist, parse_delta(step.delta));
    }
    HostSession cold = HostSession::build(std::move(final_netlist));
    const std::size_t finals =
        read_manifest(args.inputs).find("final_finds")->as_uint();
    for (std::size_t i = steps.size() - finals; i < steps.size(); ++i) {
      const Netlist pattern = parse_pattern(steps[i].request);
      const MatchReport report = find_in_session(pattern, cold);
      r.check(timeless(find_result(pattern, cold.netlist(), report)) ==
                  timeless(results[i]),
              "soup_eco_serve: warm " + steps[i].pattern +
                  " report differs from a cold build of the final netlist");
    }

    record_match_layers(r, metrics.collect());
    // The server does not fold its session's label-cache totals into the
    // registry; the traced replay below measures them instead.
    r.counts.erase("phase1.host_relabel_ops");
    r.counts["netlist.devices"] =
        static_cast<double>(cold.netlist().device_count());
    r.counts["netlist.nets"] = static_cast<double>(cold.netlist().net_count());
    r.counts["graph.csr_bytes"] =
        cold.core() != nullptr ? static_cast<double>(cold.core()->bytes())
                               : 0.0;
    double report_bytes = 0;
    for (const json::Value& result : results) {
      // Wall-clock members zeroed, so the count repeats exactly.
      report_bytes += static_cast<double>(timeless(result).size());
    }
    r.counts["report.bytes"] = report_bytes;
    r.counts["session.invalidated_labels"] = static_cast<double>(invalidated);
    r.counts["session.invalidated_ratio"] =
        patched_vertices > 0 ? static_cast<double>(invalidated) /
                                   static_cast<double>(patched_vertices)
                             : 0.0;

    if (tracer.enabled()) {
      // Replay the script directly on a HostSession: the per-layer split
      // of each request, and serve's own overhead as the difference.
      Tracer::Scope replay(tracer, "replay");
      double mb_per_s = 0;
      Netlist host = load_deck(tracer, host_path, &mb_per_s);
      HostSession session = [&] {
        Tracer::Scope s(tracer, "session.build");
        return HostSession::build(std::move(host));
      }();
      obs::Metrics direct_metrics;
      MatchOptions match;
      match.metrics = &direct_metrics;
      std::vector<double> overhead_ms;
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const double t0 = now_s();
        if (steps[i].find) {
          const Netlist pattern = parse_pattern(steps[i].request);
          const MatchReport report = [&] {
            Tracer::Scope s(tracer, "match.find");
            return find_in_session(pattern, session, match);
          }();
          Tracer::Scope s(tracer, "report.render");
          (void)find_result(pattern, session.netlist(), report).dump(0);
        } else {
          Tracer::Scope s(tracer, "session.apply");
          (void)session.apply(parse_delta(steps[i].delta));
        }
        overhead_ms.push_back(serve_ms[i] - (now_s() - t0) * 1e3);
      }
      const HostLabelCache::CacheStats cache = session.cache().stats();
      r.layers["label_cache.hits"] = static_cast<double>(cache.hits);
      r.layers["label_cache.misses"] = static_cast<double>(cache.misses);
      r.layers["match.find_s"] = tracer.total_seconds("match.find");
      r.layers["report.render_s"] = tracer.total_seconds("report.render");
      r.layers["session.apply_s"] = tracer.total_seconds("session.apply");
      r.layers["serve.overhead_ms"] = median(overhead_ms);
      r.layers["spice.parse_s"] = tracer.self_seconds("spice.parse");
      r.layers["spice.mb_per_s"] = mb_per_s;
      r.layers["netlist.flatten_s"] = tracer.self_seconds("netlist.flatten");
      r.layers["session.build_s"] = tracer.self_seconds("session.build");
      r.layers["phase1.host_relabel_ops"] =
          static_cast<double>(cache.relabel_ops);
      probe_session_parts(r, tracer, cold.netlist());
    }
  } catch (...) {
    if (server_thread.joinable()) finish();
    throw;
  }
  return r;
}

}  // namespace subg::e2e

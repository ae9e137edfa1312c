// e2e_driver — one process of the end-to-end benchmark.
//
//   e2e_driver gen --workload W --seed N --dir DIR
//       write the workload's input decks, script and manifest into DIR
//   e2e_driver run --workload W --inputs DIR --out DIR [--trace] [--setup-only]
//                  [--light-checks]
//       run one cold user run of W and print one JSON record on stdout
//
// run.py drives both; see BENCHMARK.json for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "util/json_parse.hpp"

namespace subg::e2e {

namespace {

using Clock = std::chrono::steady_clock;
Clock::time_point g_origin = Clock::now();

}  // namespace

void start_clock() { g_origin = Clock::now(); }

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  tracer_.spans_.push_back(Span{std::string(name), parent, now_s(), 0});
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end = now_s();
  tracer_.open_.pop_back();
}

double Tracer::total_seconds(std::string_view name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::self_seconds(std::string_view name) const {
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    sum += s.end - s.start;
    for (const Span& child : spans_) {
      if (child.parent == static_cast<int>(i)) sum -= child.end - child.start;
    }
  }
  return sum;
}

double Tracer::top_level_seconds(double until) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.end <= until) sum += s.end - s.start;
  }
  return sum;
}

json::Value Tracer::to_json() const {
  json::Value out = json::Value::array();
  for (const Span& s : spans_) {
    json::Value one = json::Value::object();
    one.set("name", s.name);
    one.set("parent", s.parent);
    one.set("start", s.start);
    one.set("end", s.end);
    out.push(std::move(one));
  }
  return out;
}

void Record::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("short write to " + path);
  }
}

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

json::Value read_manifest(const std::string& dir) {
  json::ParseResult parsed = json::parse(read_file(dir + "/manifest.json"));
  if (!parsed.ok()) throw std::runtime_error("bad manifest: " + parsed.error);
  return std::move(parsed.value);
}

void record_coverage(Record& record, const Tracer& tracer, double run_end) {
  if (!tracer.enabled()) return;
  const double covered = tracer.top_level_seconds(run_end);
  record.layers["trace.coverage"] = covered / run_end;
  record.layers["trace.unattributed_s"] = run_end - covered;
}

namespace {

json::Value to_json(const std::map<std::string, double>& values) {
  json::Value out = json::Value::object();
  for (const auto& [name, value] : values) out.set(name, value);
  return out;
}

json::Value to_json(const Record& r) {
  json::Value out = json::Value::object();
  out.set("setup_s", r.setup_s);
  out.set("run_s", r.run_s);
  out.set("total_s", r.setup_s + r.run_s);
  out.set("peak_rss_mb", r.peak_rss_mb);
  out.set("attempted", r.attempted);
  out.set("failed", r.failed);
  json::Value failures = json::Value::array();
  for (const std::string& f : r.failures) failures.push(f);
  out.set("failures", std::move(failures));
  json::Value latency = json::Value::object();
  for (const auto& [kind, values] : r.latency_ms) {
    json::Value list = json::Value::array();
    for (double v : values) list.push(v);
    latency.set(kind, std::move(list));
  }
  out.set("latency_ms", std::move(latency));
  out.set("counts", to_json(r.counts));
  out.set("layers", to_json(r.layers));
  out.set("output_digest", r.output_digest);
  return out;
}

int usage() {
  std::fputs(
      "usage: e2e_driver gen --workload W --seed N --dir DIR\n"
      "       e2e_driver run --workload W --inputs DIR --out DIR "
      "[--trace] [--setup-only] [--light-checks]\n",
      stderr);
  return 64;
}

int run_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string seed = "1";
  std::string dir;
  RunArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      seed = value();
    } else if (flag == "--dir") {
      dir = value();
    } else if (flag == "--inputs") {
      args.inputs = value();
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--light-checks") {
      args.light_checks = true;
    } else {
      return usage();
    }
  }
  if (mode == "gen") {
    if (workload.empty() || dir.empty()) return usage();
    generate_inputs(workload, std::stoull(seed), dir);
    return 0;
  }
  if (mode != "run" || args.inputs.empty() || args.out.empty()) {
    return usage();
  }
  Tracer tracer(args.trace);
  Record record;
  if (workload == "soc_find") {
    record = run_soc_find(args, tracer);
  } else if (workload == "soup_extract") {
    record = run_soup_extract(args, tracer);
  } else if (workload == "soup_eco_serve") {
    record = run_soup_eco_serve(args, tracer);
  } else {
    return usage();
  }
  if (tracer.enabled()) {
    write_file(args.out + "/trace.json", tracer.to_json().dump());
  }
  const std::string line = to_json(record).dump(0) + "\n";
  std::fwrite(line.data(), 1, line.size(), stdout);
  return 0;
}

}  // namespace

}  // namespace subg::e2e

int main(int argc, char** argv) {
  subg::e2e::start_clock();
  try {
    return subg::e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_driver: %s\n", e.what());
    return 70;
  }
}

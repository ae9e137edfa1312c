#include "util/cli_options.hpp"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace subg::cli {

namespace {

/// Value of `--name=value` when `arg` starts with "--name="; nullptr
/// otherwise. An exact "--name" (no '=') returns nullptr too — flags that
/// allow the bare form check for it separately.
[[nodiscard]] const char* flag_value(const std::string& arg,
                                     const char* prefix) {
  const std::size_t n = std::string::traits_type::length(prefix);
  if (arg.compare(0, n, prefix) != 0) return nullptr;
  return arg.c_str() + n;
}

/// Parse the value of a count flag into `*out`: plain decimal digits (no
/// sign, space or prefix, so "-1" cannot wrap to a huge count), in range
/// for size_t, from 1 to `max`. On a bad value set `error`, naming the
/// accepted range, and return false.
[[nodiscard]] bool count_flag(const char* v, const char* name, std::size_t max,
                              std::size_t* out, std::string* error) {
  const char* end = v + std::strlen(v);
  std::size_t n = 0;
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec != std::errc{} || ptr != end || n == 0 || n > max) {
    *error = std::string("bad ") + name + " value '" + v + "' (want " +
             (max == SIZE_MAX ? std::string("a positive integer")
                              : "an integer from 1 to " + std::to_string(max)) +
             ")";
    return false;
  }
  *out = n;
  return true;
}

/// Parse the value of a duration flag (seconds) into `*out`: a finite
/// number in (0, kMaxSeconds]. NaN, infinities and huge values are refused
/// here because converting them to a clock duration overflows. On a bad
/// value set `error` and return false.
[[nodiscard]] bool seconds_flag(const char* v, const char* name, double* out,
                                std::string* error) {
  char* end = nullptr;
  const double seconds = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(seconds > 0 && seconds <= kMaxSeconds)) {
    *error = std::string("bad ") + name + " value '" + v +
             "' (want seconds, > 0 and <= 1e9)";
    return false;
  }
  *out = seconds;
  return true;
}

}  // namespace

ParsedArgs parse_args(const std::vector<std::string>& args) {
  ParsedArgs out;
  bool flags_done = false;
  for (const std::string& arg : args) {
    if (flags_done || arg.size() < 2 || arg.compare(0, 2, "--") != 0) {
      out.positionals.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--timeout=")) {
      double seconds = 0;
      if (!seconds_flag(v, "--timeout", &seconds, &out.error)) return out;
      out.options.budget.set_deadline_after(seconds);
      continue;
    }
    if (const char* v = flag_value(arg, "--jobs=")) {
      if (!count_flag(v, "--jobs", kMaxThreads, &out.options.jobs,
                      &out.error)) {
        return out;
      }
      continue;
    }
    if (arg == "--lenient") {
      out.options.lenient = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--format=")) {
      const std::string value = v;
      if (value == "text") {
        out.options.format = Format::kText;
      } else if (value == "json") {
        out.options.format = Format::kJson;
      } else {
        out.error = "bad --format value '" + value + "' (want text or json)";
        return out;
      }
      continue;
    }
    if (arg == "--metrics") {
      out.options.metrics = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--metrics=")) {
      if (*v == '\0') {
        out.error = "bad --metrics value: empty file name";
        return out;
      }
      out.options.metrics = true;
      out.options.metrics_path = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--top=")) {
      if (*v == '\0') {
        out.error = "bad --top value: empty module name";
        return out;
      }
      out.options.top = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--pattern-top=")) {
      if (*v == '\0') {
        out.error = "bad --pattern-top value: empty module name";
        return out;
      }
      out.options.pattern_top = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--fail-on=")) {
      const std::string value = v;
      if (value == "warn") {
        out.options.fail_on = FailOn::kWarn;
      } else if (value == "error") {
        out.options.fail_on = FailOn::kError;
      } else {
        out.error = "bad --fail-on value '" + value + "' (want warn or error)";
        return out;
      }
      continue;
    }
    if (arg == "--lint") {
      out.options.lint = true;
      continue;
    }
    if (const char* v = flag_value(arg, "--core=")) {
      const auto mode = parse_core_mode(v);
      if (!mode.has_value()) {
        out.error = std::string("bad --core value '") + v +
                    "' (want csr or legacy)";
        return out;
      }
      out.options.core = *mode;
      continue;
    }
    if (const char* v = flag_value(arg, "--phase2-filter=")) {
      const auto filter = parse_phase2_filter(v);
      if (!filter.has_value()) {
        out.error = std::string("bad --phase2-filter value '") + v +
                    "' (want paths, on, or off)";
        return out;
      }
      out.options.phase2_filter = *filter;
      continue;
    }
    if (const char* v = flag_value(arg, "--analyze=")) {
      const std::string value = v;
      if (value == "on") {
        out.options.analyze = true;
      } else if (value == "off") {
        out.options.analyze = false;
      } else {
        out.error = "bad --analyze value '" + value + "' (want on or off)";
        return out;
      }
      continue;
    }
    if (const char* v = flag_value(arg, "--delta=")) {
      if (*v == '\0') {
        out.error = "bad --delta value: empty file name";
        return out;
      }
      out.options.delta_path = v;
      continue;
    }
    if (const char* v = flag_value(arg, "--serve-workers=")) {
      if (!count_flag(v, "--serve-workers", kMaxThreads,
                      &out.options.serve_workers, &out.error)) {
        return out;
      }
      continue;
    }
    if (const char* v = flag_value(arg, "--max-pending=")) {
      if (!count_flag(v, "--max-pending", SIZE_MAX, &out.options.max_pending,
                      &out.error)) {
        return out;
      }
      continue;
    }
    if (const char* v = flag_value(arg, "--max-request-bytes=")) {
      if (!count_flag(v, "--max-request-bytes", SIZE_MAX,
                      &out.options.max_request_bytes, &out.error)) {
        return out;
      }
      continue;
    }
    if (const char* v = flag_value(arg, "--request-timeout=")) {
      if (!seconds_flag(v, "--request-timeout", &out.options.request_timeout,
                        &out.error)) {
        return out;
      }
      continue;
    }
    if (const char* v = flag_value(arg, "--socket=")) {
      if (*v == '\0') {
        out.error = "bad --socket value: empty path";
        return out;
      }
      out.options.socket_path = v;
      continue;
    }
    out.error = "unknown flag '" + arg + "'";
    return out;
  }
  return out;
}

ParsedArgs parse_args(int argc, char** argv, int first) {
  std::vector<std::string> args;
  for (int i = first; i < argc; ++i) args.emplace_back(argv[i]);
  return parse_args(args);
}

const char* global_flags_help() {
  static_assert(kMaxThreads == 1024, "update the --jobs/--serve-workers help");
  static_assert(kMaxSeconds == 1e9,
                "update the --timeout/--request-timeout help");
  return
      "  --timeout=<sec>    wall-clock budget, at most 1e9; a run cut short\n"
      "                     exits 75\n"
      "  --jobs=<n>         parallel lanes, 1 to 1024 (default: hardware\n"
      "                     concurrency; 1 = serial; results are identical\n"
      "                     at every value)\n"
      "  --lenient          recover from malformed input lines (diagnostics\n"
      "                     go to stderr) instead of failing\n"
      "  --format=<fmt>     output format: text (default) or json (one\n"
      "                     schema_version-1 document on stdout)\n"
      "  --metrics[=FILE]   collect search metrics; dump the counter tree\n"
      "                     to FILE (default stderr), and embed it in json\n"
      "                     output\n"
      "  --top=NAME         top module of the host (second or sole) input\n"
      "  --pattern-top=NAME top module of the pattern (first) input\n"
      "  --fail-on=<sev>    lowest lint severity that fails the run: error\n"
      "                     (default) or warn\n"
      "  --lint             extract: lint the host netlist first; lint\n"
      "                     errors skip the extraction sweep\n"
      "  --core=<layout>    matching-core layout: csr (default; flattened\n"
      "                     index arrays) or legacy (direct graph walks);\n"
      "                     reports are byte-identical either way\n"
      "  --phase2-filter=<mode> Phase II prefilter strength: paths (default;\n"
      "                     signature check + supplemental path-label\n"
      "                     refuter), on (signature alone), or off (pure\n"
      "                     census); results are identical, the weaker modes\n"
      "                     exist for A/B perf comparison\n"
      "  --analyze=<mode>   pre-search static analysis: on (default) checks\n"
      "                     infeasibility certificates (a refuted pairing\n"
      "                     skips the search and reports why) and dedups\n"
      "                     symmetric exhaustive enumeration; off reproduces\n"
      "                     the pre-analyzer pipeline\n"
      "  --delta=FILE       find/extract: apply an ECO delta (JSON-lines,\n"
      "                     one op per line) to the host before matching\n"
      "  serve-only flags:\n"
      "  --serve-workers=<n>    concurrent request workers, 1 to 1024\n"
      "                         (default 1)\n"
      "  --max-pending=<n>      queued-request bound; beyond it requests\n"
      "                         are answered `overloaded` (default 64)\n"
      "  --max-request-bytes=<n> longest accepted request line; longer\n"
      "                         lines are answered `oversized` (default 1M)\n"
      "  --request-timeout=<sec> default per-request budget, at most 1e9;\n"
      "                         an expired request answers\n"
      "                         `deadline_expired`\n"
      "  --socket=PATH          serve an AF_UNIX socket at PATH instead of\n"
      "                         stdin/stdout\n";
}

}  // namespace subg::cli

// util/cli_options.hpp — numeric flag validation.
//
// Parse-only: nothing here builds a ThreadPool or a server, so accepting a
// thread count at the bound starts no threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/cli_options.hpp"

namespace subg::cli {
namespace {

ParsedArgs parse_one(const std::string& arg) {
  return parse_args(std::vector<std::string>{arg});
}

const char* const kCountFlags[] = {"--jobs", "--serve-workers",
                                   "--max-pending", "--max-request-bytes"};

TEST(CliOptions, CountFlagsRejectSignsAndNonDigits) {
  for (const char* flag : kCountFlags) {
    for (const char* bad : {"-1", "-5", "+4", "", " 4", "4 ", "4x", "0x10",
                            "4.0", "abc"}) {
      const std::string arg = std::string(flag) + "=" + bad;
      const ParsedArgs p = parse_one(arg);
      EXPECT_FALSE(p.ok()) << arg;
      EXPECT_NE(p.error.find(flag), std::string::npos) << p.error;
    }
  }
}

TEST(CliOptions, CountFlagsRejectZeroAndOverflow) {
  for (const char* flag : kCountFlags) {
    for (const char* bad : {"0", "000", "18446744073709551616",
                            "99999999999999999999999"}) {
      const std::string arg = std::string(flag) + "=" + bad;
      EXPECT_FALSE(parse_one(arg).ok()) << arg;
    }
  }
}

TEST(CliOptions, CountFlagsAcceptPlainPositiveValues) {
  EXPECT_EQ(parse_one("--jobs=4").options.jobs, 4u);
  EXPECT_EQ(parse_one("--serve-workers=2").options.serve_workers, 2u);
  EXPECT_EQ(parse_one("--max-pending=5").options.max_pending, 5u);
  EXPECT_EQ(parse_one("--max-request-bytes=4096").options.max_request_bytes,
            4096u);
  // The queue and line bounds have no cap beyond size_t itself.
  const ParsedArgs big = parse_one("--max-pending=18446744073709551615");
  ASSERT_TRUE(big.ok()) << big.error;
  EXPECT_EQ(big.options.max_pending, SIZE_MAX);
}

TEST(CliOptions, ThreadCountFlagsAreBounded) {
  static_assert(kMaxThreads == 1024);
  for (const char* flag : {"--jobs", "--serve-workers"}) {
    const ParsedArgs at = parse_one(std::string(flag) + "=1024");
    ASSERT_TRUE(at.ok()) << at.error;
    for (const char* bad : {"1025", "100000"}) {
      const ParsedArgs p = parse_one(std::string(flag) + "=" + bad);
      EXPECT_FALSE(p.ok()) << flag << "=" << bad;
      EXPECT_NE(p.error.find("1 to 1024"), std::string::npos) << p.error;
    }
  }
  EXPECT_EQ(parse_one("--jobs=1024").options.jobs, kMaxThreads);
  EXPECT_EQ(parse_one("--serve-workers=1024").options.serve_workers,
            kMaxThreads);
  // The bound is named in the help text of both flags.
  const std::string help = global_flags_help();
  EXPECT_NE(help.find("--jobs=<n>         parallel lanes, 1 to 1024"),
            std::string::npos);
  EXPECT_NE(help.find("--serve-workers=<n>    concurrent request workers, "
                      "1 to 1024"),
            std::string::npos);
}

TEST(CliOptions, DurationFlagsRejectNonFiniteAndHugeValues) {
  // Non-finite and huge values would overflow the conversion to a clock
  // duration; the rest are not positive numbers of seconds.
  for (const char* flag : {"--timeout", "--request-timeout"}) {
    for (const char* bad : {"nan", "inf", "-inf", "1e300", "1000000001", "0",
                            "-1", "", "1s"}) {
      const std::string arg = std::string(flag) + "=" + bad;
      const ParsedArgs p = parse_one(arg);
      EXPECT_FALSE(p.ok()) << arg;
      EXPECT_NE(p.error.find(flag), std::string::npos) << p.error;
    }
  }
  const ParsedArgs at = parse_one("--request-timeout=1e9");
  ASSERT_TRUE(at.ok()) << at.error;
  EXPECT_EQ(at.options.request_timeout, kMaxSeconds);
  const ParsedArgs t = parse_one("--timeout=0.5");
  ASSERT_TRUE(t.ok()) << t.error;
  EXPECT_TRUE(t.options.budget.has_deadline());
}

}  // namespace
}  // namespace subg::cli

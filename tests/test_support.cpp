//===----------------------------------------------------------------------===//
// Tests for src/support: string helpers, Status/StatusOr error propagation,
// the degradation log, and the CONVGEN_FAULT spec grammar.
//===----------------------------------------------------------------------===//

#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "support/Status.h"
#include "support/StringUtils.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

using namespace convgen;
using convgen::testing::ScopedEnv;

TEST(StringUtils, JoinEmpty) { EXPECT_EQ(join({}, ", "), ""); }

TEST(StringUtils, JoinSingle) { EXPECT_EQ(join({"a"}, ", "), "a"); }

TEST(StringUtils, JoinMany) {
  EXPECT_EQ(join({"a", "b", "c"}, " + "), "a + b + c");
}

TEST(StringUtils, SplitKeepsEmptyFields) {
  std::vector<std::string> Fields = split("a,,b", ',');
  ASSERT_EQ(Fields.size(), 3u);
  EXPECT_EQ(Fields[0], "a");
  EXPECT_EQ(Fields[1], "");
  EXPECT_EQ(Fields[2], "b");
}

TEST(StringUtils, SplitNoSeparator) {
  std::vector<std::string> Fields = split("abc", ',');
  ASSERT_EQ(Fields.size(), 1u);
  EXPECT_EQ(Fields[0], "abc");
}

TEST(StringUtils, TrimBothEnds) { EXPECT_EQ(trim("  x y\t\n"), "x y"); }

TEST(StringUtils, TrimAllWhitespace) { EXPECT_EQ(trim(" \t "), ""); }

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(startsWith("A1_pos", "A1"));
  EXPECT_FALSE(startsWith("A", "A1"));
}

TEST(StringUtils, Strfmt) {
  EXPECT_EQ(strfmt("%d + %s", 2, "x"), "2 + x");
  EXPECT_EQ(strfmt("%lld", static_cast<long long>(1) << 40), "1099511627776");
}

//===----------------------------------------------------------------------===//
// Status / StatusOr
//===----------------------------------------------------------------------===//

TEST(Status, DefaultIsOk) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Ok);
  EXPECT_EQ(S.toString(), "ok");
  EXPECT_FALSE(S.isEnvironmentError());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status S = Status::error(ErrorCode::Unsupported, "no plan for dia -> sky");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Unsupported);
  EXPECT_EQ(S.message(), "no plan for dia -> sky");
  EXPECT_EQ(S.toString(), "unsupported: no plan for dia -> sky");
}

TEST(Status, EnvironmentErrorsSeparateFromRequestErrors) {
  // The split is the degradation policy: environment errors may retry or
  // fall back to the interpreter, request errors must not (the fallback
  // would fail identically).
  EXPECT_TRUE(Status::error(ErrorCode::Unavailable, "x").isEnvironmentError());
  EXPECT_TRUE(Status::error(ErrorCode::DataLoss, "x").isEnvironmentError());
  EXPECT_TRUE(
      Status::error(ErrorCode::ResourceExhausted, "x").isEnvironmentError());
  EXPECT_TRUE(Status::error(ErrorCode::Internal, "x").isEnvironmentError());
  EXPECT_FALSE(
      Status::error(ErrorCode::InvalidArgument, "x").isEnvironmentError());
  EXPECT_FALSE(
      Status::error(ErrorCode::Unsupported, "x").isEnvironmentError());
}

TEST(StatusOr, HoldsValueOrError) {
  StatusOr<int> Good(42);
  ASSERT_TRUE(Good.ok());
  EXPECT_EQ(Good.value(), 42);
  EXPECT_TRUE(Good.status().ok());

  StatusOr<int> Bad(Status::error(ErrorCode::Unavailable, "no compiler"));
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrorCode::Unavailable);
  EXPECT_EQ(Bad.status().message(), "no compiler");
}

TEST(StatusOr, TakeMovesTheValue) {
  StatusOr<std::string> S(std::string("payload"));
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.take(), "payload");
}

TEST(StatusOr, ConstructingFromOkStatusIsAnInternalError) {
  StatusOr<int> Bogus((Status()));
  ASSERT_FALSE(Bogus.ok());
  EXPECT_EQ(Bogus.status().code(), ErrorCode::Internal);
}

//===----------------------------------------------------------------------===//
// CONVGEN_FAULT grammar
//===----------------------------------------------------------------------===//

TEST(FaultSpec, AcceptsTheDocumentedGrammar) {
  EXPECT_TRUE(support::parseFaultSpec("compile").ok());
  EXPECT_TRUE(support::parseFaultSpec("compile:0.5").ok());
  EXPECT_TRUE(support::parseFaultSpec("compile:0.5:12345").ok());
  EXPECT_TRUE(support::parseFaultSpec("dlopen:1,dlsym:0").ok());
  EXPECT_TRUE(support::parseFaultSpec(
                  "compile:1,dlopen:1,dlsym:1,cache-read:1,cache-write:1,"
                  "compile-hang:1")
                  .ok());
  EXPECT_TRUE(support::parseFaultSpec(" compile : 0.25 : 0x10 ").ok());
}

TEST(FaultSpec, RejectsMalformedClauses) {
  EXPECT_FALSE(support::parseFaultSpec("").ok());
  EXPECT_FALSE(support::parseFaultSpec("frobnicate").ok());
  // The allocation-probe site was removed with the probe it faked.
  EXPECT_FALSE(support::parseFaultSpec("alloc-probe").ok());
  EXPECT_FALSE(support::parseFaultSpec("compile:1.5").ok());
  EXPECT_FALSE(support::parseFaultSpec("compile:-0.1").ok());
  EXPECT_FALSE(support::parseFaultSpec("compile:rate").ok());
  EXPECT_FALSE(support::parseFaultSpec("compile:0.5:seed").ok());
  EXPECT_FALSE(support::parseFaultSpec("compile:0.5:1:extra").ok());
  EXPECT_FALSE(support::parseFaultSpec("compile,").ok());
}

TEST(FaultInjection, RateOneAlwaysFiresRateZeroNever) {
  support::resetFaultCounters();
  {
    ScopedEnv Fault("CONVGEN_FAULT", "compile:1,dlopen:0");
    for (int I = 0; I < 20; ++I) {
      EXPECT_TRUE(support::faultInjected(support::FaultSite::Compile));
      EXPECT_FALSE(support::faultInjected(support::FaultSite::Dlopen));
    }
    // Unconfigured sites never fire.
    EXPECT_FALSE(support::faultInjected(support::FaultSite::CacheRead));
    EXPECT_EQ(support::faultInjectionCount(support::FaultSite::Compile), 20u);
    EXPECT_EQ(support::faultInjectionCount(support::FaultSite::Dlopen), 0u);
  }
  support::resetFaultCounters();
}

TEST(FaultInjection, SeededStreamsAreDeterministic) {
  support::resetFaultCounters();
  auto drawPattern = [] {
    std::string Out;
    for (int I = 0; I < 64; ++I)
      Out += support::faultInjected(support::FaultSite::Dlsym) ? '1' : '0';
    return Out;
  };
  std::string First, Second;
  {
    ScopedEnv Fault("CONVGEN_FAULT", "dlsym:0.5:99");
    First = drawPattern();
  }
  {
    // The spec string must *change* for the injector to reseed, so go
    // through a different spec in between.
    ScopedEnv Fault("CONVGEN_FAULT", "dlsym:0.5:100");
    drawPattern();
  }
  {
    ScopedEnv Fault("CONVGEN_FAULT", "dlsym:0.5:99");
    Second = drawPattern();
  }
  EXPECT_EQ(First, Second);
  EXPECT_NE(First.find('1'), std::string::npos);
  EXPECT_NE(First.find('0'), std::string::npos);
  support::resetFaultCounters();
}

TEST(FaultInjection, NothingFiresWithoutTheEnvVar) {
  if (support::faultsConfigured())
    GTEST_SKIP() << "CONVGEN_FAULT set by the harness";
  for (int S = 0; S < support::kNumFaultSites; ++S)
    EXPECT_FALSE(
        support::faultInjected(static_cast<support::FaultSite>(S)));
}

//===----------------------------------------------------------------------===//
// DegradationLog
//===----------------------------------------------------------------------===//

TEST(DegradationLogTest, RecordsCountsAndDetails) {
  support::DegradationLog &Log = support::DegradationLog::instance();
  support::DegradationCounters Before = Log.snapshot();
  Log.record(support::Degradation::JitCompileFailure, "cc exploded");
  Log.record(support::Degradation::JitCompileFailure);
  Log.record(support::Degradation::InterpreterFallback, "coo -> csr");
  support::DegradationCounters After = Log.snapshot();
  EXPECT_EQ(After[support::Degradation::JitCompileFailure] -
                Before[support::Degradation::JitCompileFailure],
            2u);
  EXPECT_EQ(After[support::Degradation::InterpreterFallback] -
                Before[support::Degradation::InterpreterFallback],
            1u);
  // The most recent nonempty detail is kept per kind.
  EXPECT_EQ(Log.lastDetail(support::Degradation::JitCompileFailure),
            "cc exploded");
  EXPECT_NE(Log.summary().find("jit-compile-failure="), std::string::npos);
  EXPECT_GE(After.total(), Before.total() + 3);
}

TEST(DegradationLogTest, ResetZeroes) {
  support::DegradationLog &Log = support::DegradationLog::instance();
  Log.record(support::Degradation::CacheWriteFailure, "disk full");
  Log.reset();
  EXPECT_EQ(Log.snapshot().total(), 0u);
  EXPECT_EQ(Log.lastDetail(support::Degradation::CacheWriteFailure), "");
  EXPECT_EQ(Log.summary(), "none");
}

//===----------------------------------------------------------------------===//
// Prints the generated conversion routines for the seven pairs the paper
// evaluates (plus the optimized attribute queries in concrete index
// notation), reproducing the Figure 6 listings. Pass format names to see
// any other pair, e.g.:  inspect_codegen csr bcsr
//
// The listing is the readable view: OpenMP reductions appear as compact
// reduction(...) clauses. `inspect_codegen --c <src> <dst>` prints instead
// the C99 the JIT actually compiles (prelude, per-thread reduction copies,
// partition-bound locals, timing probes).
//
// `inspect_codegen --digest` prints one line per supported standard pair
// (order 2 and order 3), once under default options and once routed by
// codegen::optionsForDims at a hypersparse shape:
//   <src> <dst> <default|routed|routed-wide> <contentHash of the emitted C>
// (`unsupported` in place of the hash when the routed plan is refused).
// routed-wide lines repeat the routing at wider extents: order-3 tuples
// there do not pack into 64 bits, so sorted plans merge-sort instead of
// radix sorting (order-2 tuples, at 2^30 x 2^30, still pack). Diffing the
// output of two builds shows whether any emitted routine changed.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "query/Cin.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

using namespace convgen;

static void show(const char *Src, const char *Dst, bool AsC = false) {
  formats::Format From = formats::standardFormatOrDie(Src);
  formats::Format To = formats::standardFormatOrDie(Dst);
  std::string Why;
  if (!codegen::conversionSupported(From, To, &Why)) {
    std::printf("==== %s -> %s: unsupported (%s)\n\n", Src, Dst, Why.c_str());
    return;
  }
  codegen::Conversion Conv = codegen::generateConversion(From, To);
  if (AsC) {
    std::fputs(Conv.cSource().c_str(), stdout);
    return;
  }
  std::printf("==== %s -> %s\n", Src, Dst);
  std::printf("target spec: %s\n", To.summary().c_str());
  for (const auto &[Name, Stmt] : Conv.Queries)
    std::printf("query %s (optimized): %s", Name.c_str(),
                query::printCin(Stmt).c_str());
  std::printf("\n%s\n", Conv.pretty().c_str());
}

static void digest(const std::vector<formats::Format> &Formats,
                   const std::vector<int64_t> &Dims,
                   const std::vector<int64_t> &WideDims) {
  const int64_t Nnz = 40000;
  for (const formats::Format &From : Formats) {
    for (const formats::Format &To : Formats) {
      if (!codegen::conversionSupported(From, To))
        continue;
      const char *Src = From.Name.c_str(), *Dst = To.Name.c_str();
      std::printf("%s %s default %s\n", Src, Dst,
                  convert::contentHash(
                      codegen::generateConversion(From, To).cSource())
                      .c_str());
      for (const auto &[Label, Shape] :
           {std::make_pair("routed", Dims),
            std::make_pair("routed-wide", WideDims)}) {
        codegen::Options Routed =
            codegen::optionsForDims(From, To, codegen::Options(), Shape, Nnz);
        std::string Hash =
            codegen::conversionSupported(From, To, Routed)
                ? convert::contentHash(
                      codegen::generateConversion(From, To, Routed).cSource())
                : "unsupported";
        std::printf("%s %s %s %s\n", Src, Dst, Label, Hash.c_str());
      }
    }
  }
}

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::string(Argv[1]) == "--digest") {
    digest(formats::allStandardFormats(), {1 << 20, 1 << 20},
           {1 << 30, 1 << 30});
    digest(formats::standardOrder3Formats(), {2048, 2048, 64},
           {1 << 30, 1 << 30, 1 << 20});
    return 0;
  }
  if (Argc == 4 && std::string(Argv[1]) == "--c") {
    show(Argv[2], Argv[3], /*AsC=*/true);
    return 0;
  }
  if (Argc == 3) {
    show(Argv[1], Argv[2]);
    return 0;
  }
  for (auto [S, D] :
       {std::pair<const char *, const char *>{"coo", "csr"}, {"coo", "dia"},
        {"csr", "csc"}, {"csr", "dia"}, {"csr", "ell"}, {"csc", "dia"},
        {"csc", "ell"}})
    show(S, D);
  return 0;
}

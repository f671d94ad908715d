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
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "formats/Standard.h"
#include "query/Cin.h"

#include <cstdio>
#include <string>

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

int main(int Argc, char **Argv) {
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

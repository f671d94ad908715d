//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tensor/Corpus.h"

#include "support/Assert.h"
#include "tensor/Generators.h"

#include <algorithm>
#include <cmath>

using namespace convgen;
using namespace convgen::tensor;

namespace {

int64_t scaled(int64_t V, double Scale) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                  static_cast<double>(V) * Scale)));
}

/// Stencil offsets for grid-structured problems: widths {1, G, ...}.
std::vector<int64_t> stencilOffsets(int64_t Grid, int Diags) {
  switch (Diags) {
  case 5:
    return {-Grid, -1, 0, 1, Grid};
  case 7:
    return {-Grid * Grid, -Grid, -1, 0, 1, Grid, Grid * Grid};
  case 13: {
    std::vector<int64_t> Out;
    for (int64_t K = -3; K <= 3; ++K)
      Out.push_back(K);
    for (int64_t K = 1; K <= 3; ++K) {
      Out.push_back(K * Grid);
      Out.push_back(-K * Grid);
    }
    return Out;
  }
  default: {
    // Generic: Diags offsets split between near-diagonal and grid strides.
    std::vector<int64_t> Out;
    int Near = Diags / 2 + 1;
    for (int64_t K = -(Near / 2); Out.size() < static_cast<size_t>(Near); ++K)
      Out.push_back(K);
    int64_t Stride = Grid;
    while (Out.size() < static_cast<size_t>(Diags)) {
      Out.push_back(Stride);
      if (Out.size() < static_cast<size_t>(Diags))
        Out.push_back(-Stride);
      Stride += Grid;
    }
    std::sort(Out.begin(), Out.end());
    return Out;
  }
  }
}

/// A stencil-family entry (jnlbrng1, ecology1, atmosmodd, ...): exact
/// diagonals, fully filled, nnz ~= Diags * Rows.
CorpusEntry stencil(const std::string &Name, int64_t Rows, int64_t Nnz,
                    int Diags, bool Symmetric) {
  CorpusEntry E;
  E.Name = Name;
  E.Rows = E.Cols = Rows;
  E.Nnz = Nnz;
  E.Diagonals = Diags;
  E.MaxNnzPerRow = Diags;
  E.Symmetric = Symmetric;
  E.Generate = [Rows, Diags](double Scale) {
    int64_t R = scaled(Rows, Scale);
    // 7-point stencils discretize 3-D grids (strides 1, g, g^2); the others
    // are 2-D (strides up to a few g). Pick g so all strides fit in R.
    double Root = Diags == 7 ? std::cbrt(static_cast<double>(R))
                             : std::sqrt(static_cast<double>(R));
    int64_t Grid = std::max<int64_t>(2, std::llround(Root));
    return genDiagonals(R, R, stencilOffsets(Grid, Diags), 1.0,
                        std::hash<std::string>{}("stencil"));
  };
  return E;
}

/// A banded FEM-family entry (pdb1HYS, cant, consph, pwtk, ...).
CorpusEntry banded(const std::string &Name, int64_t Rows, int64_t Nnz,
                   int64_t Diags, int64_t MaxRow, bool Symmetric) {
  CorpusEntry E;
  E.Name = Name;
  E.Rows = E.Cols = Rows;
  E.Nnz = Nnz;
  E.Diagonals = Diags;
  E.MaxNnzPerRow = MaxRow;
  E.Symmetric = Symmetric;
  double AvgPerRow = static_cast<double>(Nnz) / static_cast<double>(Rows);
  int64_t HalfBand = std::max<int64_t>(Diags / 2, MaxRow);
  E.Generate = [Rows, AvgPerRow, MaxRow, HalfBand, Name](double Scale) {
    return genBandedRandom(scaled(Rows, Scale), scaled(Rows, Scale),
                           AvgPerRow, MaxRow, HalfBand,
                           std::hash<std::string>{}(Name));
  };
  return E;
}

/// A scattered-random entry (scircuit, cop20k_A, mac_econ_fwd500).
CorpusEntry scattered(const std::string &Name, int64_t Rows, int64_t Nnz,
                      int64_t Diags, int64_t MaxRow, bool Symmetric) {
  CorpusEntry E;
  E.Name = Name;
  E.Rows = E.Cols = Rows;
  E.Nnz = Nnz;
  E.Diagonals = Diags;
  E.MaxNnzPerRow = MaxRow;
  E.Symmetric = Symmetric;
  double AvgPerRow = static_cast<double>(Nnz) / static_cast<double>(Rows);
  E.Generate = [Rows, AvgPerRow, MaxRow, Name](double Scale) {
    return genRandomUniform(scaled(Rows, Scale), scaled(Rows, Scale),
                            AvgPerRow, MaxRow,
                            std::hash<std::string>{}(Name));
  };
  return E;
}

/// The power-law web graph (webbase-1M).
CorpusEntry powerLaw(const std::string &Name, int64_t Rows, int64_t Nnz,
                     int64_t Diags, int64_t MaxRow) {
  CorpusEntry E;
  E.Name = Name;
  E.Rows = E.Cols = Rows;
  E.Nnz = Nnz;
  E.Diagonals = Diags;
  E.MaxNnzPerRow = MaxRow;
  E.Symmetric = false;
  E.Generate = [Rows, Nnz, MaxRow, Name](double Scale) {
    return genPowerLawRows(scaled(Rows, Scale), scaled(Rows, Scale),
                           scaled(Nnz, Scale), MaxRow,
                           std::hash<std::string>{}(Name));
  };
  return E;
}

std::vector<CorpusEntry> buildCorpus() {
  std::vector<CorpusEntry> C;
  C.push_back(banded("pdb1HYS", 36417, 4344765, 25867, 204, true));
  C.push_back(stencil("jnlbrng1", 40000, 199200, 5, true));
  C.push_back(stencil("obstclae", 40000, 197608, 5, true));
  C.push_back(stencil("chem_master1", 40401, 201201, 5, false));
  C.push_back(banded("rma10", 46835, 2374001, 17367, 145, false));
  C.push_back(stencil("dixmaanl", 60000, 299998, 7, true));
  C.push_back(banded("cant", 62451, 4007383, 99, 78, true));
  C.push_back(stencil("shyy161", 76480, 329762, 7, false));
  C.push_back(banded("consph", 83334, 6010480, 13497, 81, true));
  C.push_back(stencil("denormal", 89400, 1156224, 13, true));
  C.push_back(stencil("Baumann", 112211, 748331, 7, false));
  C.push_back(scattered("cop20k_A", 121192, 2624331, 221205, 81, true));
  C.push_back(banded("shipsec1", 140874, 3568176, 10001, 102, true));
  C.push_back(stencil("majorbasis", 160000, 1750416, 22, false));
  C.push_back(scattered("scircuit", 170998, 958936, 158979, 353, false));
  C.push_back(
      scattered("mac_econ_fwd500", 206500, 1273389, 511, 44, false));
  C.push_back(banded("pwtk", 217918, 11524432, 19929, 180, true));
  C.push_back(stencil("Lin", 256000, 1766400, 7, true));
  C.push_back(stencil("ecology1", 1000000, 4996000, 5, true));
  C.push_back(powerLaw("webbase-1M", 1000005, 3105536, 564259, 4700));
  C.push_back(stencil("atmosmodd", 1270432, 8814880, 7, false));
  return C;
}

} // namespace

const std::vector<CorpusEntry> &tensor::table2Corpus() {
  static const std::vector<CorpusEntry> Corpus = buildCorpus();
  return Corpus;
}

const CorpusEntry &tensor::corpusEntry(const std::string &Name) {
  for (const CorpusEntry &E : table2Corpus())
    if (E.Name == Name)
      return E;
  fatalError(("unknown corpus matrix '" + Name + "'").c_str());
}

std::vector<std::pair<std::string, Triplets>> tensor::testMatrices() {
  std::vector<std::pair<std::string, Triplets>> Out;

  // The running example of the paper (Figure 1): 4x6, 9 nonzeros.
  Triplets Fig1;
  Fig1.NumRows = 4;
  Fig1.NumCols = 6;
  Fig1.Entries = {{0, 0, 5}, {0, 1, 1}, {1, 1, 7}, {1, 2, 3}, {2, 0, 8},
                  {2, 2, 2}, {2, 3, 4}, {3, 1, 9}, {3, 4, 6}};
  Out.push_back({"figure1", Fig1});

  Triplets Empty;
  Empty.NumRows = 5;
  Empty.NumCols = 7;
  Out.push_back({"empty", Empty});

  Triplets Single;
  Single.NumRows = 3;
  Single.NumCols = 3;
  Single.Entries = {{1, 2, -4.5}};
  Out.push_back({"single", Single});

  Triplets OneByOne;
  OneByOne.NumRows = 1;
  OneByOne.NumCols = 1;
  OneByOne.Entries = {{0, 0, 2.0}};
  Out.push_back({"one_by_one", OneByOne});

  Out.push_back({"dense_small", genDense(6, 5)});

  // A single dense row and a single dense column stress ELL's K and the
  // column-major formats respectively.
  Triplets DenseRow;
  DenseRow.NumRows = 8;
  DenseRow.NumCols = 8;
  for (int64_t J = 0; J < 8; ++J)
    DenseRow.Entries.push_back({3, J, static_cast<double>(J + 1)});
  Out.push_back({"dense_row", DenseRow});

  Triplets DenseCol;
  DenseCol.NumRows = 8;
  DenseCol.NumCols = 8;
  for (int64_t I = 0; I < 8; ++I)
    DenseCol.Entries.push_back({I, 5, static_cast<double>(I + 1)});
  Out.push_back({"dense_col", DenseCol});

  Out.push_back({"tridiag_rect_wide",
                 genDiagonals(7, 12, {-1, 0, 1}, 1.0, 11)});
  Out.push_back({"tridiag_rect_tall",
                 genDiagonals(12, 7, {-1, 0, 1}, 1.0, 12)});
  Out.push_back({"banded_random", genBandedRandom(40, 40, 4.0, 12, 9, 13)});
  Out.push_back({"scatter_random", genRandomUniform(37, 53, 3.0, 10, 14)});
  Out.push_back({"stencil5", genDiagonals(64, 64, {-8, -1, 0, 1, 8}, 1.0, 15)});
  Out.push_back(
      {"ragged", genPowerLawRows(50, 50, 300, 25, 16)});
  Out.push_back({"lower_banded", genLowerBanded(30, 3.0, 6, 17)});

  // Anti-diagonal: every entry on a distinct diagonal (worst case for DIA).
  Triplets Anti;
  Anti.NumRows = 10;
  Anti.NumCols = 10;
  for (int64_t I = 0; I < 10; ++I)
    Anti.Entries.push_back({I, 9 - I, static_cast<double>(I + 1)});
  Out.push_back({"antidiagonal", Anti});

  return Out;
}

std::vector<std::pair<std::string, Triplets>> tensor::testTensors3() {
  std::vector<std::pair<std::string, Triplets>> Out;

  Triplets Empty;
  Empty.setDims({4, 5, 6});
  Out.push_back({"empty3", Empty});

  Triplets Single;
  Single.setDims({3, 4, 5});
  Single.Entries = {Entry{{1, 2, 3}, -4.5}};
  Out.push_back({"single3", Single});

  // A small hand-written example with shared slices and fibers: two slices
  // reuse fiber (i, j) prefixes, one slice holds a full mode-2 fiber.
  Triplets Hand;
  Hand.setDims({3, 3, 4});
  Hand.Entries = {Entry{{0, 0, 0}, 1}, Entry{{0, 0, 2}, 2},
                  Entry{{0, 2, 1}, 3}, Entry{{1, 1, 0}, 4},
                  Entry{{1, 1, 1}, 5}, Entry{{1, 1, 2}, 6},
                  Entry{{1, 1, 3}, 7}, Entry{{2, 0, 3}, 8},
                  Entry{{2, 2, 0}, 9}};
  Out.push_back({"hand3", Hand});

  // Fully dense block (every fiber present).
  Triplets Dense;
  Dense.setDims({3, 2, 4});
  for (int64_t I = 0; I < 3; ++I)
    for (int64_t J = 0; J < 2; ++J)
      for (int64_t K = 0; K < 4; ++K)
        Dense.Entries.push_back(
            Entry{{I, J, K}, static_cast<double>(1 + I * 8 + J * 4 + K)});
  Out.push_back({"dense3", Dense});

  Out.push_back({"random3", genRandomTensor3(12, 9, 14, 160, 31)});
  Out.push_back({"skewed3", genSliceSkewed3(16, 10, 8, 140, 32)});
  Out.push_back({"hyper3", genHyperSparse3(40, 30, 25, 20, 33)});

  return Out;
}

std::vector<std::pair<std::string, Triplets>> tensor::testTensorsHuge3() {
  std::vector<std::pair<std::string, Triplets>> Out;
  const int64_t Big = int64_t(1) << 31; // A full 2^31-extent mode.
  const int64_t Mid = int64_t(1) << 20;

  // The acceptance workload: a 2^31-extent outer mode, nonzeros uniform in
  // the box, every slice/fiber almost surely a singleton.
  Out.push_back({"huge_mode0",
                 genHyperSparse3(Big, Mid, Mid, 400, 71)});

  // Huge inner modes: the outer mode is tame, so only the deeper levels'
  // grouping products blow the budget.
  Out.push_back({"huge_mode12",
                 genRandomTensor3(64, Big, Big, 300, 72)});

  // Shared prefixes despite huge extents: a few mode-0 slices carry many
  // entries, so sorted-ranking's pos/crd construction sees real fan-out.
  Out.push_back({"huge_skewed",
                 genSliceSkewed3(32, Big, Mid, 350, 73)});

  // Duplicated boundary coordinates (0 and extent-1) exercise the binary
  // search at both ends of the sorted list.
  Triplets Edges;
  Edges.setDims({Big, Big, Big});
  Edges.Entries = {Entry{{0, 0, 0}, 1.0},
                   Entry{{0, 0, Big - 1}, 2.0},
                   Entry{{0, Big - 1, 0}, 3.0},
                   Entry{{Big - 1, 0, 5}, 4.0},
                   Entry{{Big - 1, Big - 1, Big - 1}, 5.0}};
  Out.push_back({"huge_corners", Edges});

  Triplets Empty;
  Empty.setDims({Big, Mid, Mid});
  Out.push_back({"huge_empty", Empty});

  return Out;
}

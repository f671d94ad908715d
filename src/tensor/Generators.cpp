//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tensor/Generators.h"

#include "support/Assert.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <random>
#include <set>

using namespace convgen;
using namespace convgen::tensor;

namespace {

/// Nonzero value derived from coordinates; deterministic and never zero.
double valueAt(int64_t Row, int64_t Col) {
  return 1.0 + static_cast<double>((Row * 31 + Col * 17) % 97) / 97.0;
}

/// Draws \p Count distinct columns from [Lo, Hi) into sorted order.
std::vector<int64_t> drawColumns(std::mt19937_64 &Rng, int64_t Lo, int64_t Hi,
                                 int64_t Count) {
  int64_t Span = Hi - Lo;
  Count = std::min(Count, Span);
  std::set<int64_t> Cols;
  std::uniform_int_distribution<int64_t> Dist(Lo, Hi - 1);
  while (static_cast<int64_t>(Cols.size()) < Count)
    Cols.insert(Dist(Rng));
  return {Cols.begin(), Cols.end()};
}

} // namespace

Triplets tensor::genDiagonals(int64_t Rows, int64_t Cols,
                              const std::vector<int64_t> &Offsets,
                              double Fill, uint64_t Seed) {
  Triplets T;
  T.NumRows = Rows;
  T.NumCols = Cols;
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Coin(0.0, 1.0);
  std::vector<int64_t> Sorted = Offsets;
  std::sort(Sorted.begin(), Sorted.end());
  for (int64_t I = 0; I < Rows; ++I)
    for (int64_t Offset : Sorted) {
      int64_t J = I + Offset;
      if (J < 0 || J >= Cols)
        continue;
      if (Fill < 1.0 && Coin(Rng) >= Fill)
        continue;
      T.Entries.push_back(Entry{I, J, valueAt(I, J)});
    }
  return T;
}

Triplets tensor::genBandedRandom(int64_t Rows, int64_t Cols, double AvgPerRow,
                                 int64_t MaxPerRow, int64_t HalfBand,
                                 uint64_t Seed) {
  CONVGEN_ASSERT(AvgPerRow <= static_cast<double>(MaxPerRow),
                 "average row count above the cap");
  Triplets T;
  T.NumRows = Rows;
  T.NumCols = Cols;
  std::mt19937_64 Rng(Seed);
  std::poisson_distribution<int64_t> RowCount(AvgPerRow);
  for (int64_t I = 0; I < Rows; ++I) {
    int64_t Lo = std::max<int64_t>(0, I - HalfBand);
    int64_t Hi = std::min(Cols, I + HalfBand + 1);
    int64_t Count = std::clamp<int64_t>(RowCount(Rng), 1, MaxPerRow);
    for (int64_t J : drawColumns(Rng, Lo, Hi, Count))
      T.Entries.push_back(Entry{I, J, valueAt(I, J)});
  }
  return T;
}

Triplets tensor::genRandomUniform(int64_t Rows, int64_t Cols,
                                  double AvgPerRow, int64_t MaxPerRow,
                                  uint64_t Seed) {
  Triplets T;
  T.NumRows = Rows;
  T.NumCols = Cols;
  std::mt19937_64 Rng(Seed);
  std::poisson_distribution<int64_t> RowCount(AvgPerRow);
  for (int64_t I = 0; I < Rows; ++I) {
    int64_t Count = std::clamp<int64_t>(RowCount(Rng), 0, MaxPerRow);
    for (int64_t J : drawColumns(Rng, 0, Cols, Count))
      T.Entries.push_back(Entry{I, J, valueAt(I, J)});
  }
  return T;
}

Triplets tensor::genPowerLawRows(int64_t Rows, int64_t Cols, int64_t TotalNnz,
                                 int64_t MaxPerRow, uint64_t Seed) {
  Triplets T;
  T.NumRows = Rows;
  T.NumCols = Cols;
  std::mt19937_64 Rng(Seed);
  // Zipf-like weights over a shuffled row order, scaled to TotalNnz.
  std::vector<double> Weights(static_cast<size_t>(Rows));
  double Sum = 0;
  for (int64_t I = 0; I < Rows; ++I) {
    Weights[static_cast<size_t>(I)] = 1.0 / std::pow(I + 1.0, 0.85);
    Sum += Weights[static_cast<size_t>(I)];
  }
  std::vector<int64_t> Order(static_cast<size_t>(Rows));
  for (int64_t I = 0; I < Rows; ++I)
    Order[static_cast<size_t>(I)] = I;
  std::shuffle(Order.begin(), Order.end(), Rng);
  for (int64_t Rank = 0; Rank < Rows; ++Rank) {
    int64_t I = Order[static_cast<size_t>(Rank)];
    int64_t Count = std::clamp<int64_t>(
        std::llround(Weights[static_cast<size_t>(Rank)] / Sum *
                     static_cast<double>(TotalNnz)),
        0, MaxPerRow);
    for (int64_t J : drawColumns(Rng, 0, Cols, Count))
      T.Entries.push_back(Entry{I, J, valueAt(I, J)});
  }
  T.sortRowMajor();
  return T;
}

Triplets tensor::genDense(int64_t Rows, int64_t Cols) {
  Triplets T;
  T.NumRows = Rows;
  T.NumCols = Cols;
  for (int64_t I = 0; I < Rows; ++I)
    for (int64_t J = 0; J < Cols; ++J)
      T.Entries.push_back(Entry{I, J, valueAt(I, J)});
  return T;
}

Triplets tensor::genLowerBanded(int64_t Rows, double AvgPerRow,
                                int64_t HalfBand, uint64_t Seed) {
  Triplets T;
  T.NumRows = Rows;
  T.NumCols = Rows;
  std::mt19937_64 Rng(Seed);
  std::poisson_distribution<int64_t> RowCount(AvgPerRow);
  for (int64_t I = 0; I < Rows; ++I) {
    int64_t Lo = std::max<int64_t>(0, I - HalfBand);
    int64_t Count = std::max<int64_t>(1, RowCount(Rng));
    std::vector<int64_t> Cols = drawColumns(Rng, Lo, I + 1, Count);
    // Keep the diagonal present so the profile reaches every row.
    if (Cols.empty() || Cols.back() != I)
      Cols.push_back(I);
    for (int64_t J : Cols)
      T.Entries.push_back(Entry{I, J, valueAt(I, J)});
  }
  return T;
}

namespace {

/// Deterministic nonzero value over a third-order coordinate.
double valueAt3(int64_t I, int64_t J, int64_t K) {
  return 1.0 + static_cast<double>((I * 31 + J * 17 + K * 7) % 89) / 89.0;
}

/// Shared core of the third-order generators: draws distinct coordinates
/// until Target entries exist, mode-0 slice index supplied by \p Slice.
Triplets fill3(int64_t I, int64_t J, int64_t K, int64_t Target, uint64_t Seed,
               const std::function<int64_t(std::mt19937_64 &)> &Slice) {
  Triplets T;
  T.setDims({I, J, K});
  // Saturating capacity: huge-dimension boxes (2^31 x 2^20 x 2^20)
  // overflow a plain I * J * K, which is UB and used to zero the target.
  int64_t Cap = I;
  Cap = (Cap != 0 && J > INT64_MAX / Cap) ? INT64_MAX : Cap * J;
  Cap = (Cap != 0 && K > INT64_MAX / Cap) ? INT64_MAX : Cap * K;
  Target = std::min(Target, Cap);
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> DJ(0, J - 1), DK(0, K - 1);
  std::set<std::array<int64_t, 3>> Seen;
  while (static_cast<int64_t>(Seen.size()) < Target) {
    std::array<int64_t, 3> C = {Slice(Rng), DJ(Rng), DK(Rng)};
    if (Seen.insert(C).second)
      T.Entries.push_back(
          Entry{{C[0], C[1], C[2]}, valueAt3(C[0], C[1], C[2])});
  }
  T.sortRowMajor();
  return T;
}

} // namespace

Triplets tensor::genRandomTensor3(int64_t I, int64_t J, int64_t K,
                                  int64_t TotalNnz, uint64_t Seed) {
  std::uniform_int_distribution<int64_t> DI(0, I - 1);
  return fill3(I, J, K, TotalNnz, Seed,
               [DI](std::mt19937_64 &Rng) mutable { return DI(Rng); });
}

Triplets tensor::genSliceSkewed3(int64_t I, int64_t J, int64_t K,
                                 int64_t TotalNnz, uint64_t Seed) {
  // Zipf weights over a shuffled slice order: a handful of heavy slices,
  // a long tail of near-empty ones.
  std::mt19937_64 Setup(Seed ^ 0x5ca1ab1e);
  std::vector<int64_t> Order(static_cast<size_t>(I));
  for (int64_t S = 0; S < I; ++S)
    Order[static_cast<size_t>(S)] = S;
  std::shuffle(Order.begin(), Order.end(), Setup);
  std::vector<double> Weights(static_cast<size_t>(I));
  for (int64_t S = 0; S < I; ++S)
    Weights[static_cast<size_t>(S)] = 1.0 / (1.0 + static_cast<double>(S));
  std::discrete_distribution<int64_t> Pick(Weights.begin(), Weights.end());
  return fill3(I, J, K, TotalNnz, Seed,
               [Pick, Order](std::mt19937_64 &Rng) mutable {
                 return Order[static_cast<size_t>(Pick(Rng))];
               });
}

Triplets tensor::genHyperSparse3(int64_t I, int64_t J, int64_t K,
                                 int64_t TotalNnz, uint64_t Seed) {
  // Uniform draws with nnz << I leave most slices/fibers empty; the caller
  // picks the nnz.
  return genRandomTensor3(I, J, K, TotalNnz, Seed);
}

Triplets tensor::symmetrized(const Triplets &T) {
  CONVGEN_ASSERT(T.NumRows == T.NumCols, "symmetrization needs a square matrix");
  std::set<std::pair<int64_t, int64_t>> Seen;
  Triplets Out;
  Out.NumRows = T.NumRows;
  Out.NumCols = T.NumCols;
  for (const Entry &E : T.Entries) {
    if (Seen.insert({E.Row, E.Col}).second)
      Out.Entries.push_back(E);
    if (E.Row != E.Col && Seen.insert({E.Col, E.Row}).second)
      Out.Entries.push_back(Entry{E.Col, E.Row, E.Val});
  }
  Out.sortRowMajor();
  return Out;
}

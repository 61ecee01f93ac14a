#include "util/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numbers>
#include <ostream>

#include "util/check.h"
#include "util/serial.h"

namespace pier {

namespace {

constexpr double kLn2 = 0.6931471805599453;
constexpr double kBlockCells = static_cast<double>(kBloomBlockCells);
// Wire value of the 1-bit blocked layout; 1 and 2 were earlier
// layouts whose bytes this one cannot read.
constexpr uint8_t kBlockedLayout = 3;

// log(x!) for a whole x >= 1: summed exactly while short, Stirling's
// series beyond (std::lgamma is not thread-safe in glibc).
double LogFactorial(double x) {
  if (x < 16.0) {
    double sum = 0.0;
    for (double i = 2.0; i <= x; ++i) sum += std::log(i);
    return sum;
  }
  return x * std::log(x) - x + 0.5 * std::log(2.0 * std::numbers::pi * x) +
         1.0 / (12.0 * x);
}

// Rounds a cell count up to whole blocks.
double WholeBlocks(double cells) {
  return std::max(1.0, std::ceil(cells / kBlockCells)) * kBlockCells;
}

// The blocked model at one cell count, for several k: holds the
// Poisson weights of the per-block key counts that matter.
class BlockedModel {
 public:
  BlockedModel(double keys, double cells) {
    const double lambda = keys * kBlockCells / cells;
    if (lambda > 1e6) {
      // The block loads concentrate within 1% of the mean, so the
      // layout behaves as a flat filter.
      flat_load_ = keys / cells;
      return;
    }
    // Poisson(lambda) weights of j keys per block, over the window
    // that carries all but a negligible tail.
    const double spread = 10.0 * std::sqrt(lambda) + 10.0;
    const double lo = std::max(1.0, std::floor(lambda - spread));
    const double hi = std::ceil(lambda + spread);
    const double log_lambda = std::log(lambda);
    double log_weight = -lambda + lo * log_lambda - LogFactorial(lo);
    for (double j = lo; j <= hi; ++j) {
      terms_.push_back({j, std::exp(log_weight)});
      log_weight += log_lambda - std::log(j + 1.0);
    }
  }

  double FpRate(int hashes) const {
    const double k = static_cast<double>(hashes);
    if (flat_load_ > 0.0) {
      return std::pow(-std::expm1(-k * flat_load_), k);
    }
    // A cell stays clear of one key's k draws with probability
    // (1 - 1/512)^k.
    const double log_clear = k * std::log1p(-1.0 / kBlockCells);
    double rate = 0.0;
    for (const Term& t : terms_) {
      rate += t.weight * std::pow(-std::expm1(t.keys * log_clear), k);
    }
    return std::min(rate, 1.0);
  }

 private:
  struct Term {
    double keys;
    double weight;
  };
  std::vector<Term> terms_;
  double flat_load_ = 0.0;
};

}  // namespace

double BlockedBloomFpRate(double keys, size_t cells, int hashes) {
  if (!(keys > 0.0) || cells < kBloomBlockCells || hashes < 1) return 0.0;
  return BlockedModel(keys, static_cast<double>(cells)).FpRate(hashes);
}

std::optional<BloomSizing> SizeBloom(size_t n, double p) {
  if (n == 0 || !(p > 0.0) || !(p < 1.0)) return std::nullopt;
  const double items = static_cast<double>(n);
  double cells = WholeBlocks(-items * std::log(p) / (kLn2 * kLn2));
  // Ends by 1e18 cells at the latest (at least 2% growth per step).
  while (cells <= 1e18) {
    const BlockedModel model(items, cells);
    const double k = std::round(cells / items * kLn2);
    const int k_flat = static_cast<int>(
        std::clamp(k, 1.0, static_cast<double>(kMaxBloomHashes)));
    int best_k = k_flat;
    double best_rate = model.FpRate(k_flat);
    for (int k = k_flat - 1; k >= std::max(1, k_flat - 4); --k) {
      const double rate = model.FpRate(k);
      if (rate < best_rate) {
        best_rate = rate;
        best_k = k;
      }
    }
    if (best_rate <= p) {
      return BloomSizing{static_cast<size_t>(cells), best_k};
    }
    cells = std::max(cells + kBlockCells, WholeBlocks(cells * 1.02));
  }
  return std::nullopt;
}

template <int kCellBits>
BlockedBloomFilter<kCellBits>::BlockedBloomFilter(size_t expected_items,
                                                  double fp_rate)
    : expected_items_(expected_items) {
  const std::optional<BloomSizing> sizing = SizeBloom(expected_items, fp_rate);
  PIER_CHECK(sizing.has_value());
  sizing_ = *sizing;
  words_.assign(sizing_.cells / kBloomBlockCells * kBlockWords, 0);
}

template <int kCellBits>
void BlockedBloomFilter<kCellBits>::Add(const BloomHash& hash) {
  uint64_t* block = MutableBlockOf(hash);
  ForEachCell(hash, [block](size_t bit) {
    // Branch-free saturating increment (a 1-bit cell is set half the
    // time, so a branch here mispredicts on most keys).
    uint64_t& word = block[bit >> 6];
    const size_t shift = bit & 63;
    word += static_cast<uint64_t>(((word >> shift) & kCellMax) != kCellMax)
            << shift;
    return true;
  });
  ++num_insertions_;
}

template <int kCellBits>
bool BlockedBloomFilter<kCellBits>::MayContain(const BloomHash& hash) const {
  const uint64_t* block = BlockOf(hash);
  return ForEachCell(hash, [block](size_t bit) {
    return ((block[bit >> 6] >> (bit & 63)) & kCellMax) != 0;
  });
}

template <int kCellBits>
bool BlockedBloomFilter<kCellBits>::Remove(const BloomHash& hash)
  requires kRemovable
{
  if (!MayContain(hash)) return false;
  uint64_t* block = MutableBlockOf(hash);
  ForEachCell(hash, [block](size_t bit) {
    uint64_t& word = block[bit >> 6];
    const size_t shift = bit & 63;
    const uint64_t value = (word >> shift) & kCellMax;
    if (value > 0 && value < kCellMax) word -= uint64_t{1} << shift;
    return true;
  });
  ++num_removals_;
  return true;
}

template <int kCellBits>
double BlockedBloomFilter<kCellBits>::FpEstimate() const {
  return BlockedBloomFpRate(static_cast<double>(num_insertions_),
                            sizing_.cells, sizing_.hashes);
}

template <int kCellBits>
void BlockedBloomFilter<kCellBits>::WriteStackHeader(std::ostream& out) {
  if constexpr (kCellBits == 1) {
    serial::WriteU64(out, 0);  // sentinel
    serial::WriteU8(out, kBlockedLayout);
  }
}

template <int kCellBits>
bool BlockedBloomFilter<kCellBits>::ReadStackHeader(std::istream& in) {
  if constexpr (kCellBits == 1) {
    uint64_t sentinel = 0;
    uint8_t layout = 0;
    return serial::ReadU64(in, &sentinel) && sentinel == 0 &&
           serial::ReadU8(in, &layout) && layout == kBlockedLayout;
  }
  return true;
}

template <int kCellBits>
void BlockedBloomFilter<kCellBits>::Snapshot(std::ostream& out) const {
  WriteStackHeader(out);
  serial::WriteU64(out, expected_items_);
  serial::WriteU64(out, sizing_.cells);
  serial::WriteU32(out, static_cast<uint32_t>(sizing_.hashes));
  serial::WriteU64(out, num_insertions_);
  if constexpr (kRemovable) serial::WriteU64(out, num_removals_);
  serial::WriteVec(out, words_, serial::WriteU64);
}

template <int kCellBits>
std::unique_ptr<BlockedBloomFilter<kCellBits>>
BlockedBloomFilter<kCellBits>::FromSnapshot(std::istream& in) {
  auto filter = std::unique_ptr<BlockedBloomFilter>(new BlockedBloomFilter());
  uint64_t expected_items = 0;
  uint64_t num_cells = 0;
  uint32_t num_hashes = 0;
  uint64_t num_insertions = 0;
  uint64_t num_removals = 0;
  if (!ReadStackHeader(in) || !serial::ReadU64(in, &expected_items) ||
      !serial::ReadU64(in, &num_cells) || !serial::ReadU32(in, &num_hashes) ||
      !serial::ReadU64(in, &num_insertions)) {
    return nullptr;
  }
  if constexpr (kRemovable) {
    if (!serial::ReadU64(in, &num_removals)) return nullptr;
  }
  if (!serial::ReadVec(in, &filter->words_, serial::ReadU64)) return nullptr;
  if (expected_items == 0 || num_cells < kBloomBlockCells ||
      num_cells % kBloomBlockCells != 0 || num_hashes < 1 ||
      num_hashes > kMaxBloomHashes || num_removals > num_insertions ||
      filter->words_.size() != num_cells / kBloomBlockCells * kBlockWords) {
    return nullptr;
  }
  filter->expected_items_ = expected_items;
  filter->sizing_ = {num_cells, static_cast<int>(num_hashes)};
  filter->num_insertions_ = num_insertions;
  filter->num_removals_ = num_removals;
  return filter;
}

template class BlockedBloomFilter<1>;
template class BlockedBloomFilter<2>;

}  // namespace pier

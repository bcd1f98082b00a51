/**
 * @file
 * Division-free modulo by a run-constant divisor. The cache set index,
 * the L2 bank and the DRAM bank are each `n % d` for a divisor fixed at
 * construction (768 L2 sets, 6 L2 banks, 40 DRAM banks on the paper
 * machine), computed once per simulated access; a 64-bit `div` costs
 * tens of cycles, a multiply-high a few.
 */

#ifndef LAPERM_MEM_FAST_MOD_HH
#define LAPERM_MEM_FAST_MOD_HH

#include <cstdint>

#include "common/log.hh"

namespace laperm {

/**
 * `n % d` via a precomputed reciprocal `m = floor((2^64 - 1) / d)`.
 *
 * `q = mulhi(n, m)` is the true quotient or one less: from
 * `2^64 / d - 1 <= m < 2^64 / d` follows `n/d - 1 < n*m / 2^64 < n/d`.
 * So `r = n - q*d` lies in `[0, 2d)` and one conditional subtract
 * yields the remainder, for every 64-bit dividend and every d >= 1.
 */
class FastMod
{
  public:
    FastMod() = default;

    explicit FastMod(std::uint64_t d) : d_(d)
    {
        laperm_assert(d > 0, "FastMod divisor must be > 0");
        m_ = ~std::uint64_t{0} / d;
    }

    std::uint64_t
    mod(std::uint64_t n) const
    {
        __extension__ using U128 = unsigned __int128;
        const auto q =
            static_cast<std::uint64_t>((static_cast<U128>(n) * m_) >> 64);
        const std::uint64_t r = n - q * d_;
        return r >= d_ ? r - d_ : r;
    }

  private:
    std::uint64_t d_ = 1;
    std::uint64_t m_ = ~std::uint64_t{0};
};

} // namespace laperm

#endif // LAPERM_MEM_FAST_MOD_HH

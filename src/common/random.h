#ifndef APPROXHADOOP_COMMON_RANDOM_H_
#define APPROXHADOOP_COMMON_RANDOM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace approxhadoop {

/**
 * The 64-bit Mersenne Twister, draw-for-draw identical to
 * std::mt19937_64, with lazy seeding.
 *
 * A std::mt19937_64 runs the 312-word seeding recurrence and then twists
 * all 312 words before its first output, although output p < 156 of that
 * first twist reads only state words p, p + 1 and p + 156. This engine
 * runs the seeding recurrence only as far as the next draw needs and
 * twists one word per draw, so a generator that is seeded and then drawn
 * a handful of times (the per-record streams of every workload) costs
 * about 160 recurrence steps instead of 624. The full state is
 * materialized on draw 157, after which the engine is the textbook one.
 *
 * operator<< prints the same text as std::mt19937_64's (a freshly seeded
 * engine prints its untwisted state and index 312), so a digest of that
 * text is independent of how far the lazy state has been computed. It is
 * a UniformRandomBitGenerator, so every std distribution draws exactly
 * what it draws from std::mt19937_64.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    explicit Mt19937_64(uint64_t seed) { x_[0] = seed; }

    // Copies only the words computed so far: the rest are never read
    // before they are written, and copying them would read indeterminate
    // values (and 2.5 KB per copy of a fresh generator).
    Mt19937_64(const Mt19937_64& other) { *this = other; }
    Mt19937_64&
    operator=(const Mt19937_64& other)
    {
        if (this == &other) {
            return *this;
        }
        std::copy_n(other.x_, other.seeded_, x_);
        p_ = other.p_;
        seeded_ = other.seeded_;
        lazy_ = other.lazy_;
        return *this;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (lazy_) {
            if (p_ < kShift) {
                seedThrough(p_ + kShift);
                x_[p_] = twistWord(x_[p_], x_[p_ + 1], x_[p_ + kShift]);
                return temper(x_[p_++]);
            }
            materialize();
        }
        if (p_ >= kStateWords) {
            twistFrom(0);
            p_ = 0;
        }
        return temper(x_[p_++]);
    }

    /** Prints the state exactly as std::mt19937_64's operator<< does. */
    friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);

    /** Room writeText() needs: 312 words of up to 20 digits and a
     *  space each, then the index. */
    static constexpr size_t kTextBytes = 312 * 21 + 20;

    /**
     * Writes the text operator<< prints into @p out, which holds at
     * least kTextBytes, and returns its length: for digesting the state
     * without a stream.
     */
    size_t writeText(char* out) const;

    /** The twist's middle distance m (n/2 for the 64-bit engine). */
    static constexpr size_t kShift = 156;
    /** Engines seedInLockstep() advances together. */
    static constexpr size_t kLockstepLanes = 8;

    /**
     * Runs the seeding recurrence of @p count fresh engines (nothing
     * drawn yet) through word @p last < 312, kLockstepLanes engines at a
     * time in lock step.
     *
     * One engine's recurrence is a dependent multiply chain, so a lone
     * first draw (which needs word 156) waits on 156 multiplies in a
     * row; interleaving independent engines lets the CPU overlap them.
     * Each engine stays lazy with its recurrence computed through
     * @p last, so every later draw and operator<< is unchanged.
     */
    static void seedInLockstep(Mt19937_64* const* engines, size_t count,
                               size_t last);

  private:
    static constexpr size_t kStateWords = 312;

    static uint64_t
    twistWord(uint64_t word, uint64_t next, uint64_t far)
    {
        constexpr uint64_t kUpper = ~uint64_t{0} << 31;
        uint64_t y = (word & kUpper) | (next & ~kUpper);
        return far ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
    }

    static uint64_t
    temper(uint64_t z)
    {
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /** Word @p i of the seeding recurrence, from word i - 1. */
    static uint64_t
    seedWord(uint64_t prev, size_t i)
    {
        return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }

    /** Runs the seeding recurrence up to and including word @p last. */
    void
    seedThrough(size_t last)
    {
        for (; seeded_ <= last; ++seeded_) {
            x_[seeded_] = seedWord(x_[seeded_ - 1], seeded_);
        }
    }

    /** seedInLockstep() for exactly @p kLanes fresh engines. */
    template <size_t kLanes>
    static void seedLanes(Mt19937_64* const* group, size_t last);

    /** Finishes the lazy first block: the rest of the seeding, then the
     *  rest of the first twist (none when nothing has been drawn yet). */
    void materialize();
    /** Twists words [from, 312) of the current block. */
    void twistFrom(size_t from);

    /** State words; only [0, seeded_) are defined (all once !lazy_). */
    uint64_t x_[kStateWords];
    /** Next output index into x_ (the index operator<< prints). */
    size_t p_ = 0;
    /** Words of the seeding recurrence computed so far. */
    size_t seeded_ = 1;
    /** True while words [p_, 312) of the first block are untwisted. */
    bool lazy_ = true;
};

/**
 * Deterministic random source used everywhere in the framework.
 *
 * Wraps a 64-bit Mersenne Twister (Mt19937_64: std::mt19937_64's exact
 * sequence) with the handful of draws the framework needs. Every component that needs randomness receives (or derives) an
 * explicit Rng so that whole experiments are reproducible from a single
 * seed. Use derive() to split independent streams (e.g., one per map task)
 * without correlated sequences.
 */
class Rng
{
  public:
    /** Constructs a generator from an explicit seed. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Returns a uniformly distributed double in [0, 1). */
    double uniform();

    /** Returns a uniformly distributed double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Returns a uniformly distributed integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Returns true with probability @p p (clamped to [0, 1]). */
    bool bernoulli(double p);

    /** Returns a normal deviate with the given mean and stddev. */
    double normal(double mean, double stddev);

    /** Returns a lognormal deviate with the given log-space parameters. */
    double lognormal(double mu, double sigma);

    /** Returns an exponential deviate with the given rate. */
    double exponential(double rate);

    /**
     * Derives an independent child generator.
     *
     * @param stream distinguishes sibling children derived from the same
     *               parent (e.g., a task index)
     */
    Rng derive(uint64_t stream);

    /**
     * The child derive(@p stream) returns when this generator's next raw
     * engine draw is @p base. A parent used only for its first draw
     * (Rng(seed).derive(s) per task) can take that draw once and derive
     * every child from it.
     */
    static Rng derived(uint64_t base, uint64_t stream);

    /**
     * Samples @p k distinct indices uniformly from [0, n) with k draws
     * (Floyd's algorithm; membership is an n-bit bitmap). The result is
     * not sorted: its order is part of the draw sequence.
     */
    std::vector<uint64_t> sampleWithoutReplacement(uint64_t n, uint64_t k);

    /**
     * The same draws and indices as sampleWithoutReplacement(n, k), in
     * ascending order: read off the membership bitmap, not sorted.
     */
    std::vector<uint64_t> sortedSampleWithoutReplacement(uint64_t n,
                                                         uint64_t k);

    /** Shuffles @p values in place (Fisher-Yates). */
    template <typename T>
    void
    shuffle(std::vector<T>& values)
    {
        for (size_t i = values.size(); i > 1; --i) {
            size_t j = uniformInt(i);
            std::swap(values[i - 1], values[j]);
        }
    }

    /** Exposes the underlying engine for use with std distributions. */
    Mt19937_64& engine() { return engine_; }

  private:
    /**
     * Floyd's k draws over [0, n). Returns the membership bitmap (bit i
     * of word i / 64 set when i is chosen) and, when @p order is not
     * null, appends each chosen index to it in draw order.
     */
    std::vector<uint64_t> floyd(uint64_t n, uint64_t k,
                                std::vector<uint64_t>* order);

    Mt19937_64 engine_;
};

/** SplitMix64 step; used for cheap per-item hashing/seeding. */
uint64_t splitmix64(uint64_t x);

}  // namespace approxhadoop

#endif  // APPROXHADOOP_COMMON_RANDOM_H_

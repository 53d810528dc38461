/**
 * @file
 * Property test: the cache model against a straightforward reference
 * implementation over long random access sequences.
 *
 * The oracle tracks per-set LRU order and dirty bits with plain
 * std::vector bookkeeping; every hit/miss decision and every writeback
 * address of the production cache must match it exactly, including
 * across flush() and for tag-0 lines (the production cache stores
 * tag + 1 so that 0 can mark an invalid way).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"

namespace dfault::mem {
namespace {

/** Minimal but obviously-correct set-associative LRU cache. */
class OracleCache
{
  public:
    OracleCache(std::uint64_t size, std::uint32_t line,
                std::uint32_t ways)
        : line_(line), ways_(ways), sets_(size / line / ways),
          sets_state_(sets_)
    {
    }

    CacheAccessResult
    access(Addr addr, bool is_write)
    {
        const std::uint64_t line_no = addr / line_;
        const std::uint64_t set = line_no % sets_;
        const std::uint64_t tag = line_no / sets_;
        auto &entries = sets_state_[set];

        // Hit: move to MRU position.
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (entries[i].tag == tag) {
                Entry e = entries[i];
                e.dirty |= is_write;
                entries.erase(entries.begin() + i);
                entries.push_back(e);
                return {true, std::nullopt};
            }
        }

        // Miss: evict LRU (front) when full.
        CacheAccessResult result{false, std::nullopt};
        if (entries.size() == ways_) {
            const Entry victim = entries.front();
            entries.erase(entries.begin());
            if (victim.dirty)
                result.writebackAddr =
                    (victim.tag * sets_ + set) * line_;
        }
        entries.push_back({tag, is_write});
        return result;
    }

    void
    flush()
    {
        for (auto &entries : sets_state_)
            entries.clear();
    }

  private:
    struct Entry
    {
        std::uint64_t tag;
        bool dirty;
    };

    std::uint64_t line_;
    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<std::vector<Entry>> sets_state_;
};

struct OracleCase
{
    std::uint64_t size;
    std::uint32_t ways;
    std::uint64_t addr_space;
    /** Flush both caches after every this many accesses; 0 = never. */
    int flush_every = 0;
    /** Share of accesses aimed at tag-0 lines (line 0 included). */
    double tag0_share = 0.0;
};

class CacheOracleTest : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(CacheOracleTest, MatchesReferenceOverRandomTraffic)
{
    const auto param = GetParam();
    Cache::Params p;
    p.sizeBytes = param.size;
    p.lineBytes = 64;
    p.ways = param.ways;
    Cache cache(p);
    OracleCache oracle(param.size, 64, param.ways);

    Rng rng(param.size ^ param.ways);
    const std::uint64_t tag0_bytes = param.size / param.ways;
    for (int i = 0; i < 50000; ++i) {
        if (param.flush_every > 0 && i % param.flush_every == 0) {
            cache.flush();
            oracle.flush();
        }
        const std::uint64_t space =
            param.tag0_share > 0.0 && rng.bernoulli(param.tag0_share)
                ? tag0_bytes
                : param.addr_space;
        const Addr addr = rng.uniformInt(space / 8) * 8;
        const bool is_write = rng.bernoulli(0.3);
        const auto got = cache.access(addr, is_write);
        const auto want = oracle.access(addr, is_write);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.writebackAddr.has_value(),
                  want.writebackAddr.has_value())
            << "access " << i;
        if (got.writebackAddr) {
            ASSERT_EQ(*got.writebackAddr, *want.writebackAddr)
                << "access " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheOracleTest,
    ::testing::Values(OracleCase{1024, 1, 16384},   // direct mapped
                      OracleCase{2048, 2, 16384},   // small 2-way
                      OracleCase{8192, 8, 65536},   // L1-ish
                      OracleCase{32768, 4, 32768},  // low pressure
                      OracleCase{4096, 64, 65536},  // fully associative
                      OracleCase{65536, 16, 262144}, // L2-shaped
                      OracleCase{65536, 16, 262144, 1499},
                      OracleCase{8192, 8, 65536, 997},
                      OracleCase{1024, 1, 16384, 0, 0.5},
                      OracleCase{2048, 2, 16384, 501, 0.5},
                      OracleCase{4096, 64, 65536, 0, 0.5}),
    [](const ::testing::TestParamInfo<OracleCase> &info) {
        return "size" + std::to_string(info.param.size) + "_ways" +
               std::to_string(info.param.ways) +
               (info.param.flush_every > 0 ? "_flush" : "") +
               (info.param.tag0_share > 0.0 ? "_tag0" : "");
    });

} // namespace
} // namespace dfault::mem

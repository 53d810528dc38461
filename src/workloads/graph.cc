#include "workloads/graph.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/rng.hh"
#include "workloads/detail.hh"

namespace dfault::workloads {

using detail::elem;
using detail::f2w;
using detail::w2f;

RmatGraph
RmatGraph::generate(std::uint32_t v, std::uint64_t e, std::uint64_t seed)
{
    DFAULT_ASSERT(v >= 2 && std::has_single_bit(v),
                  "RMAT vertex count must be a power of two >= 2");
    Rng rng(seed);
    const int scale = std::countr_zero(v);

    // Classic RMAT quadrant probabilities (a, b, c, d).
    constexpr double a = 0.57, b = 0.19, c = 0.19;

    // One draw per bit picks a quadrant: u < a is top-left (no bit),
    // then b sets the dst bit, c the src bit, d both. The thresholds
    // are nested (in_a implies in_ab implies in_abc), so the src bit is
    // !in_ab and the dst bit is set exactly for b and d, which is the
    // parity !(in_a ^ in_ab ^ in_abc). Computing the bits instead of
    // branching on a random quadrant avoids a misprediction per draw.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
    edge_list.reserve(e);
    for (std::uint64_t i = 0; i < e; ++i) {
        std::uint32_t src = 0, dst = 0;
        for (int bit = 0; bit < scale; ++bit) {
            const double u = rng.uniform();
            const std::uint32_t in_a = u < a;
            const std::uint32_t in_ab = u < a + b;
            const std::uint32_t in_abc = u < a + b + c;
            src |= (in_ab ^ 1u) << bit;
            dst |= (in_a ^ in_ab ^ in_abc ^ 1u) << bit;
        }
        edge_list.emplace_back(src, dst);
    }

    // Pull-style CSR: edges grouped by destination.
    RmatGraph g;
    g.vertices = v;
    g.offsets.assign(static_cast<std::size_t>(v) + 1, 0);
    for (const auto &[src, dst] : edge_list)
        ++g.offsets[dst + 1];
    for (std::uint32_t i = 0; i < v; ++i)
        g.offsets[i + 1] += g.offsets[i];
    g.targets.resize(e);
    std::vector<std::uint32_t> cursor(g.offsets.begin(),
                                      g.offsets.end() - 1);
    for (const auto &[src, dst] : edge_list)
        g.targets[cursor[dst]++] = src;
    return g;
}

namespace {

/** Graph arrays laid out in simulated memory. */
struct GraphImage
{
    RmatGraph graph;
    Addr offsets = 0;
    Addr targets = 0;
    Addr rank0 = 0; ///< V words of per-vertex state
    Addr rank1 = 0; ///< V words of per-vertex state
};

/**
 * Size an RMAT instance to the workload footprint (E + 3V + 1 words
 * with E ~ 8V) and write its CSR arrays into simulated memory.
 */
GraphImage
buildGraphImage(sys::ExecutionContext &ctx, std::uint64_t footprint_bytes,
                std::uint64_t seed)
{
    const std::uint64_t words = footprint_bytes / units::bytesPerWord;
    std::uint32_t v = 1;
    while (static_cast<std::uint64_t>(v) * 2 * 11 + 1 <= words)
        v *= 2;
    const std::uint64_t e = words - 3ULL * v - 1;

    GraphImage img;
    img.graph = RmatGraph::generate(v, e, seed);
    img.offsets = ctx.allocate((v + 1ULL) * units::bytesPerWord);
    img.targets = ctx.allocate(e * units::bytesPerWord);
    img.rank0 = ctx.allocate(v * units::bytesPerWord);
    img.rank1 = ctx.allocate(v * units::bytesPerWord);

    for (std::uint32_t i = 0; i <= v; ++i)
        ctx.store(0, elem(img.offsets, i), img.graph.offsets[i]);
    for (std::uint64_t i = 0; i < e; ++i)
        ctx.store(0, elem(img.targets, i), img.graph.targets[i]);
    return img;
}

} // namespace

PageRank::PageRank(const Params &params) : Workload("pagerank", params) {}

void
PageRank::run(sys::ExecutionContext &ctx)
{
    const int threads = ctx.threads();
    GraphImage img = buildGraphImage(ctx, params_.footprintBytes,
                                     params_.seed);
    const std::uint32_t v = img.graph.vertices;

    const double init = 1.0 / static_cast<double>(v);
    for (std::uint32_t i = 0; i < v; ++i)
        ctx.store(0, elem(img.rank0, i), f2w(init));

    const std::uint64_t iterations = scaled(3);
    const std::uint32_t per_thread = v / threads;

    for (std::uint64_t it = 0; it < iterations; ++it) {
        const Addr src_rank = (it % 2 == 0) ? img.rank0 : img.rank1;
        const Addr dst_rank = (it % 2 == 0) ? img.rank1 : img.rank0;

        detail::interleave(threads, per_thread / 64,
                           [&](int t, std::uint64_t blk) {
            const std::uint32_t base =
                static_cast<std::uint32_t>(t) * per_thread +
                static_cast<std::uint32_t>(blk) * 64;
            for (std::uint32_t k = 0; k < 64; ++k) {
                const std::uint32_t dst = base + k;
                const auto begin = static_cast<std::uint32_t>(
                    ctx.load(t, elem(img.offsets, dst)));
                const std::uint32_t end = img.graph.offsets[dst + 1];
                double acc = 0.0;
                for (std::uint32_t eidx = begin; eidx < end; ++eidx) {
                    const auto src = static_cast<std::uint32_t>(
                        ctx.load(t, elem(img.targets, eidx)));
                    acc += w2f(ctx.load(t, elem(src_rank, src)));
                }
                ctx.computeFp(t, 2 * (end - begin) + 3);
                ctx.store(t, elem(dst_rank, dst),
                          f2w(0.15 * (1.0 / v) + 0.85 * acc));
                ctx.branch(t, false);
            }
        });
    }
}

Bfs::Bfs(const Params &params) : Workload("bfs", params) {}

void
Bfs::run(sys::ExecutionContext &ctx)
{
    const int threads = ctx.threads();
    GraphImage img = buildGraphImage(ctx, params_.footprintBytes,
                                     params_.seed);
    const std::uint32_t v = img.graph.vertices;
    const Addr level = img.rank0;

    const std::uint64_t traversals = scaled(2);
    Rng rng(params_.seed + 17);

    for (std::uint64_t run = 0; run < traversals; ++run) {
        constexpr std::uint64_t unvisited = ~0ULL;
        for (std::uint32_t i = 0; i < v; ++i)
            ctx.store(0, elem(level, i), unvisited);
        const auto root =
            static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{v}));
        ctx.store(0, elem(level, root), 0);

        // Level-synchronous pull BFS: each round every unvisited vertex
        // scans its in-neighbours for a frontier member.
        bool changed = true;
        for (std::uint64_t depth = 0; changed && depth < 24; ++depth) {
            changed = false;
            const std::uint32_t per_thread = v / threads;
            detail::interleave(threads, per_thread / 64,
                               [&](int t, std::uint64_t blk) {
                const std::uint32_t base =
                    static_cast<std::uint32_t>(t) * per_thread +
                    static_cast<std::uint32_t>(blk) * 64;
                for (std::uint32_t k = 0; k < 64; ++k) {
                    const std::uint32_t dst = base + k;
                    const std::uint64_t lv =
                        ctx.load(t, elem(level, dst));
                    ctx.branch(t, false);
                    if (lv != unvisited)
                        continue;
                    const auto begin = static_cast<std::uint32_t>(
                        ctx.load(t, elem(img.offsets, dst)));
                    const std::uint32_t end = img.graph.offsets[dst + 1];
                    for (std::uint32_t eidx = begin; eidx < end;
                         ++eidx) {
                        const auto src = static_cast<std::uint32_t>(
                            ctx.load(t, elem(img.targets, eidx)));
                        const std::uint64_t sl =
                            ctx.load(t, elem(level, src));
                        ctx.compute(t, 2);
                        if (sl == depth) {
                            ctx.store(t, elem(level, dst), depth + 1);
                            changed = true;
                            break;
                        }
                    }
                }
            });
        }
    }
}

BetweennessCentrality::BetweennessCentrality(const Params &params)
    : Workload("bc", params)
{
}

void
BetweennessCentrality::run(sys::ExecutionContext &ctx)
{
    const int threads = ctx.threads();
    GraphImage img = buildGraphImage(ctx, params_.footprintBytes,
                                     params_.seed);
    const std::uint32_t v = img.graph.vertices;
    const Addr sigma = img.rank0; ///< shortest-path counts
    const Addr delta = img.rank1; ///< dependency accumulators

    const std::uint64_t sources = scaled(2);
    Rng rng(params_.seed + 31);

    for (std::uint64_t s = 0; s < sources; ++s) {
        for (std::uint32_t i = 0; i < v; ++i)
            ctx.store(0, elem(sigma, i), 0);
        const auto root =
            static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{v}));
        ctx.store(0, elem(sigma, root), 1);

        // Forward sweep: two rounds of path-count propagation (the RMAT
        // diameter is small; this approximates Brandes' BFS phase).
        const std::uint32_t per_thread = v / threads;
        for (int round = 0; round < 2; ++round) {
            detail::interleave(threads, per_thread / 64,
                               [&](int t, std::uint64_t blk) {
                const std::uint32_t base =
                    static_cast<std::uint32_t>(t) * per_thread +
                    static_cast<std::uint32_t>(blk) * 64;
                for (std::uint32_t k = 0; k < 64; ++k) {
                    const std::uint32_t dst = base + k;
                    const auto begin = static_cast<std::uint32_t>(
                        ctx.load(t, elem(img.offsets, dst)));
                    const std::uint32_t end =
                        img.graph.offsets[dst + 1];
                    std::uint64_t acc = 0;
                    for (std::uint32_t eidx = begin; eidx < end;
                         ++eidx) {
                        const auto src = static_cast<std::uint32_t>(
                            ctx.load(t, elem(img.targets, eidx)));
                        acc += ctx.load(t, elem(sigma, src));
                        ctx.compute(t, 1);
                    }
                    if (acc != 0) {
                        const std::uint64_t old =
                            ctx.load(t, elem(sigma, dst));
                        ctx.store(t, elem(sigma, dst), old + acc);
                    }
                    ctx.branch(t, false);
                }
            });
        }

        // Backward sweep: dependency accumulation delta[v] from the
        // path counts; betweenness scores are floating point.
        detail::interleave(threads, per_thread / 64,
                           [&](int t, std::uint64_t blk) {
            const std::uint32_t base =
                static_cast<std::uint32_t>(t) * per_thread +
                static_cast<std::uint32_t>(blk) * 64;
            for (std::uint32_t k = 0; k < 64; ++k) {
                const std::uint32_t w = base + k;
                const std::uint64_t sg = ctx.load(t, elem(sigma, w));
                const double contribution =
                    sg == 0 ? 0.0
                            : 1.0 / static_cast<double>(sg);
                const double old = w2f(ctx.load(t, elem(delta, w)));
                ctx.store(t, elem(delta, w), f2w(old + contribution));
                ctx.computeFp(t, 4);
                ctx.branch(t, false);
            }
        });
    }
}

} // namespace dfault::workloads

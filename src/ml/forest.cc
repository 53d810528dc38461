#include "ml/forest.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "par/pool.hh"

namespace dfault::ml {

namespace {

/** AoS node used only while growing a tree; flattened to SoA after. */
struct Node
{
    // Leaf when feature < 0.
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;
    int left = -1;
    int right = -1;
};

} // namespace

RandomForestRegressor::RandomForestRegressor()
    : RandomForestRegressor(Params{})
{
}

RandomForestRegressor::RandomForestRegressor(const Params &params)
    : params_(params)
{
    if (params_.trees <= 0)
        DFAULT_FATAL("forest: tree count must be positive");
    if (params_.minSamplesLeaf == 0)
        DFAULT_FATAL("forest: minSamplesLeaf must be >= 1");
}

void
RandomForestRegressor::fit(const Matrix &x, std::span<const double> y)
{
    DFAULT_ASSERT(x.size() == y.size(), "forest: x/y size mismatch");
    DFAULT_ASSERT(!x.empty(), "forest: empty training set");

    const std::size_t n = x.size();
    const std::size_t p = x[0].size();
    if (n > std::numeric_limits<std::uint32_t>::max())
        DFAULT_FATAL("forest: ", n, " training rows do not fit the "
                     "32-bit row ids of the split search");
    const std::size_t mtry =
        params_.maxFeatures > 0
            ? std::min(params_.maxFeatures, p)
            : std::max<std::size_t>(1, p / 3);

    // Feature-major copy of x, shared read-only by every tree: one
    // candidate's values are one contiguous column.
    std::vector<double> cols(n * p);
    for (std::size_t r = 0; r < n; ++r) {
        DFAULT_ASSERT(x[r].size() == p, "forest: ragged training row ", r);
        for (std::size_t f = 0; f < p; ++f)
            cols[f * n + r] = x[r][f];
    }

    std::vector<std::vector<Node>> grown(params_.trees);

    // Each tree draws from its own RNG stream, derived from the forest
    // seed and the tree index — not from one generator shared across
    // the loop. That makes every tree's randomness independent of how
    // work is scheduled, so trees can be grown in parallel (or in any
    // order) and the fitted forest is identical.
    par::Pool::global().parallelFor(grown.size(), [&](std::size_t t) {
        std::vector<Node> &nodes = grown[t];
        Rng rng(hashCombine(params_.seed,
                            static_cast<std::uint64_t>(t)));

        std::vector<std::size_t> feature_pool(p);
        std::iota(feature_pool.begin(), feature_pool.end(), 0);

        // The bootstrap sample is the tree's row arena: every node
        // owns the range [begin, end) of it, its rows in node order.
        std::vector<std::uint32_t> arena(n);
        for (auto &r : arena)
            r = static_cast<std::uint32_t>(
                rng.uniformInt(static_cast<std::uint64_t>(n)));

        // Split-search record: a candidate's value next to its row,
        // so the sort compares keys without chasing row pointers.
        struct Key
        {
            double v;
            std::uint32_t row;
        };
        std::vector<Key> keys(n);
        std::vector<std::uint32_t> right_rows;
        right_rows.reserve(n);

        // Iterative recursion via an explicit stack of work items.
        struct Item
        {
            std::uint32_t begin;
            std::uint32_t end;
            int depth;
            int nodeIndex;
        };
        nodes.push_back(Node{});
        std::vector<Item> stack;
        stack.push_back({0, static_cast<std::uint32_t>(n), 0, 0});

        while (!stack.empty()) {
            const Item item = stack.back();
            stack.pop_back();
            Node &node = nodes[item.nodeIndex];
            const std::uint32_t *rows = arena.data() + item.begin;
            const std::size_t m = item.end - item.begin;

            double sum = 0.0, sq = 0.0;
            for (std::size_t i = 0; i < m; ++i) {
                sum += y[rows[i]];
                sq += y[rows[i]] * y[rows[i]];
            }
            const double count = static_cast<double>(m);
            const double node_mean = sum / count;
            const double node_sse = sq - sum * sum / count;

            const bool stop = item.depth >= params_.maxDepth ||
                              m < 2 * params_.minSamplesLeaf ||
                              node_sse <= 1e-12;
            if (stop) {
                node.feature = -1;
                node.value = node_mean;
                continue;
            }

            // Choose mtry candidate features at random (partial
            // Fisher-Yates on this tree's pool).
            for (std::size_t k = 0; k < mtry; ++k) {
                const std::size_t pick =
                    k + rng.uniformInt(
                            static_cast<std::uint64_t>(p - k));
                std::swap(feature_pool[k], feature_pool[pick]);
            }

            int best_feature = -1;
            double best_threshold = 0.0;
            double best_sse = node_sse;

            // Each candidate sorts the rows in the order the previous
            // candidate left them, starting from node order. The
            // unstable sort's tie order depends on that input order,
            // and the scan sums y through tied runs in it, so the
            // carried order is part of the fitted forest (see
            // docs/performance.md, "Why the forest keeps std::sort's
            // tie order").
            for (std::size_t i = 0; i < m; ++i)
                keys[i].row = rows[i];
            for (std::size_t k = 0; k < mtry; ++k) {
                const std::size_t feat = feature_pool[k];
                const double *col = cols.data() + feat * n;
                for (std::size_t i = 0; i < m; ++i)
                    keys[i].v = col[keys[i].row];
                std::sort(keys.begin(), keys.begin() + m,
                          [](const Key &a, const Key &b) {
                              return a.v < b.v;
                          });
                // Prefix scan of sums for O(n) split evaluation.
                double left_sum = 0.0, left_sq = 0.0;
                for (std::size_t i = 0; i + 1 < m; ++i) {
                    const double v = y[keys[i].row];
                    left_sum += v;
                    left_sq += v * v;
                    const double xv = keys[i].v;
                    const double xn = keys[i + 1].v;
                    if (xv == xn)
                        continue;
                    const std::size_t nl = i + 1;
                    const std::size_t nr = m - nl;
                    if (nl < params_.minSamplesLeaf ||
                        nr < params_.minSamplesLeaf)
                        continue;
                    const double right_sum = sum - left_sum;
                    const double right_sq = sq - left_sq;
                    const double sse =
                        (left_sq - left_sum * left_sum / nl) +
                        (right_sq - right_sum * right_sum / nr);
                    if (sse < best_sse) {
                        best_sse = sse;
                        best_feature = static_cast<int>(feat);
                        best_threshold = 0.5 * (xv + xn);
                    }
                }
            }

            if (best_feature < 0) {
                node.feature = -1;
                node.value = node_mean;
                continue;
            }

            // Stable partition of the node's range: left rows first,
            // then right rows, each in node order.
            const double *col = cols.data() + best_feature * n;
            std::uint32_t mid = item.begin;
            right_rows.clear();
            for (std::uint32_t i = item.begin; i < item.end; ++i) {
                const std::uint32_t r = arena[i];
                if (col[r] <= best_threshold)
                    arena[mid++] = r;
                else
                    right_rows.push_back(r);
            }
            std::copy(right_rows.begin(), right_rows.end(),
                      arena.begin() + mid);

            const int left_index = static_cast<int>(nodes.size());
            nodes.push_back(Node{});
            const int right_index = static_cast<int>(nodes.size());
            nodes.push_back(Node{});
            // `node` may be dangling after push_back; reindex.
            Node &parent = nodes[item.nodeIndex];
            parent.feature = best_feature;
            parent.threshold = best_threshold;
            parent.left = left_index;
            parent.right = right_index;

            stack.push_back({item.begin, mid, item.depth + 1, left_index});
            stack.push_back({mid, item.end, item.depth + 1, right_index});
        }
    });

    // Flatten every grown tree into one contiguous packed-node array,
    // rebasing child indices by the tree's offset. Growth pushes each
    // split's children back to back, so right == left + 1 always
    // holds and only the left index is stored; leaves park their
    // value in the threshold slot.
    std::size_t total = 0;
    for (const auto &nodes : grown)
        total += nodes.size();
    nodes_.clear();
    nodes_.reserve(total);
    treeRoots_.clear();
    treeRoots_.reserve(grown.size());
    for (const auto &nodes : grown) {
        const auto base = static_cast<std::int32_t>(nodes_.size());
        treeRoots_.push_back(base);
        for (const Node &node : nodes) {
            PackedNode packed;
            packed.feature = node.feature;
            if (node.feature < 0) {
                packed.threshold = node.value;
            } else {
                DFAULT_ASSERT(node.right == node.left + 1,
                              "forest: split children not adjacent");
                packed.threshold = node.threshold;
                packed.child = base + node.left;
            }
            nodes_.push_back(packed);
        }
    }
}

double
RandomForestRegressor::predictTree(std::int32_t root,
                                   std::span<const double> row) const
{
    const PackedNode *nodes = nodes_.data();
    const PackedNode *node = nodes + root;
    while (node->feature >= 0)
        node = nodes + node->child +
               (row[node->feature] <= node->threshold ? 0 : 1);
    return node->threshold;
}

double
RandomForestRegressor::predict(std::span<const double> row) const
{
    DFAULT_ASSERT(!treeRoots_.empty(), "forest: predict before fit");
    double acc = 0.0;
    for (const std::int32_t root : treeRoots_)
        acc += predictTree(root, row);
    return acc / static_cast<double>(treeRoots_.size());
}

void
RandomForestRegressor::predictMany(const Matrix &rows,
                                   std::vector<double> &out) const
{
    DFAULT_ASSERT(!treeRoots_.empty(), "forest: predict before fit");
    out.assign(rows.size(), 0.0);
    // Trees outer, rows inner: each tree's nodes are walked once per
    // batch, and four rows descend a tree together. A single
    // traversal is a chain of dependent loads, but different rows of
    // the same tree are independent, so interleaving them keeps four
    // loads in flight instead of one. Per-row sums still accumulate
    // in tree order, so every entry matches predict() bit for bit.
    const PackedNode *nodes = nodes_.data();
    for (const std::int32_t root : treeRoots_) {
        std::size_t i = 0;
        for (; i + 4 <= rows.size(); i += 4) {
            const PackedNode *n0 = nodes + root;
            const PackedNode *n1 = n0;
            const PackedNode *n2 = n0;
            const PackedNode *n3 = n0;
            std::span<const double> r0 = rows[i];
            std::span<const double> r1 = rows[i + 1];
            std::span<const double> r2 = rows[i + 2];
            std::span<const double> r3 = rows[i + 3];
            for (;;) {
                bool active = false;
                if (n0->feature >= 0) {
                    n0 = nodes + n0->child +
                         (r0[n0->feature] <= n0->threshold ? 0 : 1);
                    active = true;
                }
                if (n1->feature >= 0) {
                    n1 = nodes + n1->child +
                         (r1[n1->feature] <= n1->threshold ? 0 : 1);
                    active = true;
                }
                if (n2->feature >= 0) {
                    n2 = nodes + n2->child +
                         (r2[n2->feature] <= n2->threshold ? 0 : 1);
                    active = true;
                }
                if (n3->feature >= 0) {
                    n3 = nodes + n3->child +
                         (r3[n3->feature] <= n3->threshold ? 0 : 1);
                    active = true;
                }
                if (!active)
                    break;
            }
            out[i] += n0->threshold;
            out[i + 1] += n1->threshold;
            out[i + 2] += n2->threshold;
            out[i + 3] += n3->threshold;
        }
        for (; i < rows.size(); ++i)
            out[i] += predictTree(root, rows[i]);
    }
    const double scale = static_cast<double>(treeRoots_.size());
    for (double &v : out)
        v /= scale;
}

double
RandomForestRegressor::predictFirstTrees(std::span<const double> row,
                                         std::size_t trees) const
{
    DFAULT_ASSERT(!treeRoots_.empty(), "forest: predict before fit");
    if (trees == 0)
        DFAULT_FATAL("forest: predictFirstTrees needs trees >= 1 "
                     "(a 0-tree slice has no prediction)");
    const std::size_t n = std::min(trees, treeRoots_.size());
    double acc = 0.0;
    for (std::size_t t = 0; t < n; ++t)
        acc += predictTree(treeRoots_[t], row);
    return acc / static_cast<double>(n);
}

ForestSliceRegressor::ForestSliceRegressor(
    const RandomForestRegressor &forest, std::size_t trees)
    : forest_(forest), trees_(trees)
{
    if (trees == 0)
        DFAULT_FATAL("ForestSliceRegressor: trees must be >= 1, got 0");
}

void
ForestSliceRegressor::fit(const Matrix &, std::span<const double>)
{
    DFAULT_FATAL("ForestSliceRegressor is a view over an already-fitted "
                 "forest; fit the underlying RandomForestRegressor");
}

double
ForestSliceRegressor::predict(std::span<const double> row) const
{
    return forest_.predictFirstTrees(row, trees_);
}

void
ForestSliceRegressor::predictMany(const Matrix &rows,
                                  std::vector<double> &out) const
{
    out.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        out[i] = forest_.predictFirstTrees(rows[i], trees_);
}

} // namespace dfault::ml

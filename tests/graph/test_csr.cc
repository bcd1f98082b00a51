#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "graph/csr.hh"
#include "graph/generators.hh"

using namespace laperm;

TEST(Csr, FromEdgesBasic)
{
    Csr g = Csr::fromEdges(4, {{0, 1}, {0, 2}, {2, 3}}, false);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
    auto n0 = g.neighbors(0);
    ASSERT_EQ(n0.size(), 2u);
    EXPECT_EQ(n0[0], 1u);
    EXPECT_EQ(n0[1], 2u);
}

TEST(Csr, SymmetricInsertsReverseEdges)
{
    Csr g = Csr::fromEdges(3, {{0, 1}}, true);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.neighbors(1)[0], 0u);
}

TEST(Csr, DuplicatesAndSelfLoopsRemoved)
{
    Csr g = Csr::fromEdges(3, {{0, 1}, {0, 1}, {1, 1}, {2, 2}}, false);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(Csr, OffsetsConsistent)
{
    Csr g = Csr::fromEdges(5, {{0, 1}, {1, 2}, {1, 3}, {4, 0}}, false);
    std::uint64_t total = 0;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(g.offset(v), total);
        total += g.degree(v);
    }
    EXPECT_EQ(total, g.numEdges());
}

TEST(Csr, MaxDegree)
{
    Csr g = Csr::fromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}, false);
    EXPECT_EQ(g.maxDegree(), 3u);
    Csr empty = Csr::fromEdges(2, {}, false);
    EXPECT_EQ(empty.maxDegree(), 0u);
}

// ------------------------------------------ counting build vs reference

namespace {

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/** The sort-based construction fromEdges used before the counting build. */
std::pair<std::vector<std::uint64_t>, std::vector<std::uint32_t>>
referenceCsr(std::uint32_t n, EdgeList edges, bool symmetric)
{
    if (symmetric) {
        const std::size_t m = edges.size();
        for (std::size_t i = 0; i < m; ++i)
            edges.emplace_back(edges[i].second, edges[i].first);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::vector<std::uint64_t> offsets(n + 1, 0);
    std::vector<std::uint32_t> cols;
    for (const auto &[u, v] : edges) {
        if (u == v)
            continue;
        ++offsets[u + 1];
        cols.push_back(v);
    }
    for (std::uint32_t v = 0; v < n; ++v)
        offsets[v + 1] += offsets[v];
    return {offsets, cols};
}

void
expectMatchesReference(std::uint32_t n, const EdgeList &edges,
                       bool symmetric, const char *what)
{
    const Csr g = Csr::fromEdges(n, edges, symmetric);
    const auto [offsets, cols] = referenceCsr(n, edges, symmetric);
    EXPECT_EQ(g.offsets(), offsets) << what;
    EXPECT_EQ(g.cols(), cols) << what;
}

/**
 * An edge list describing @p g's undirected graph the way generators
 * emit them: one random direction per pair, duplicates, self-loops and
 * shuffled order.
 */
EdgeList
noisyEdgesOf(const Csr &g, std::uint64_t seed)
{
    Rng rng(seed);
    EdgeList edges;
    for (std::uint32_t u = 0; u < g.numVertices(); ++u) {
        for (std::uint32_t v : g.neighbors(u)) {
            if (u > v)
                continue;
            edges.emplace_back(rng.nextBounded(2) ? std::pair{u, v}
                                                  : std::pair{v, u});
            if (rng.nextBounded(8) == 0)
                edges.emplace_back(v, u);
            if (rng.nextBounded(16) == 0)
                edges.emplace_back(u, u);
        }
    }
    for (std::size_t i = edges.size(); i > 1; --i)
        std::swap(edges[i - 1], edges[rng.nextBounded(i)]);
    return edges;
}

} // namespace

namespace {

/**
 * Every generator's graph at the workloads' parameters for one scale
 * (workloads/graph_common.cc), rebuilt from noisy edge lists by the
 * counting build and by the reference.
 */
void
checkGeneratorGraphs(const char *scale, std::uint32_t n,
                     std::uint32_t rmat_log2, std::uint32_t deg,
                     std::uint32_t band, std::vector<std::uint64_t> seeds,
                     bool check_directed)
{
    for (std::uint64_t seed : seeds) {
        const struct
        {
            const char *gen;
            Csr g;
        } graphs[] = {
            {"citation", genCitation(n, deg, seed)},
            {"rmat", genRmat(rmat_log2, deg, seed)},
            {"cage", genCage(n, band, deg, seed)},
            {"uniform", genUniform(n, deg, seed)},
        };
        for (const auto &[gen, g] : graphs) {
            SCOPED_TRACE(std::string(gen) + " " + scale + " seed " +
                         std::to_string(seed));
            const EdgeList edges = noisyEdgesOf(g, seed);
            expectMatchesReference(g.numVertices(), edges, true, gen);
            // The noisy list describes the generator's graph, so its
            // symmetric build reproduces the generator's CSR.
            const Csr back = Csr::fromEdges(g.numVertices(), edges, true);
            EXPECT_EQ(back.offsets(), g.offsets());
            EXPECT_EQ(back.cols(), g.cols());
            // Directed build: rows keep one direction of each pair.
            if (check_directed)
                expectMatchesReference(g.numVertices(), edges, false, gen);
        }
    }
}

} // namespace

TEST(Csr, CountingBuildMatchesSortReferenceOnTinyGraphs)
{
    checkGeneratorGraphs("tiny", 3000, 11, 8, 128, {1, 2, 3}, true);
}

TEST(Csr, CountingBuildMatchesSortReferenceOnSmallGraphs)
{
    checkGeneratorGraphs("small", 64000, 16, 16, 2048, {1}, false);
}

TEST(Csr, CountingBuildMatchesSortReferenceOnEdgeCases)
{
    for (bool sym : {false, true}) {
        expectMatchesReference(0, {}, sym, "no vertices");
        expectMatchesReference(5, {}, sym, "no edges");
        expectMatchesReference(4, {{0, 0}, {3, 3}, {3, 3}}, sym,
                               "only self-loops");
        expectMatchesReference(4, {{1, 2}, {1, 2}, {1, 2}, {0, 3}, {1, 2}},
                               sym, "duplicates");
        expectMatchesReference(3, {{0, 1}, {1, 0}, {2, 1}, {1, 2}, {1, 2}},
                               sym, "(u,v) and (v,u)");
        expectMatchesReference(6, {{5, 0}, {4, 1}, {3, 2}, {2, 3}, {0, 5}},
                               sym, "descending input");
    }
    // (u,v) plus (v,u) under symmetric collapse to one edge each way.
    const Csr g = Csr::fromEdges(2, {{0, 1}, {1, 0}}, true);
    EXPECT_EQ(g.numEdges(), 2u);
}

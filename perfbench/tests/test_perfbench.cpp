// Unit tests of the benchmark's own measurement code: input reproducibility
// (digests) and the nearest-rank percentile helper.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

const std::vector<bt::NodeId> kSources = {0, 7, 23, 61};

TEST(Inputs, SameSeedGivesSameStreamDigest) {
  const bt::Platform platform = reference_platform();
  EXPECT_EQ(digest_stream(mutation_stream(platform, kSources, 200, 11)),
            digest_stream(mutation_stream(platform, kSources, 200, 11)));
}

TEST(Inputs, DifferentSeedGivesDifferentStreamDigest) {
  const bt::Platform platform = reference_platform();
  EXPECT_NE(digest_stream(mutation_stream(platform, kSources, 200, 11)),
            digest_stream(mutation_stream(platform, kSources, 200, 12)));
}

TEST(Inputs, PlatformListDigestFollowsSeed) {
  const std::string a = digest_platforms(tiers_platforms(8, 5));
  EXPECT_EQ(a, digest_platforms(tiers_platforms(8, 5)));
  EXPECT_NE(a, digest_platforms(tiers_platforms(8, 6)));
}

TEST(Inputs, CorpusOrderDigestFollowsSeed) {
  const std::string a = digest_order(corpus_order(100, 3, 21));
  EXPECT_EQ(a, digest_order(corpus_order(100, 3, 21)));
  EXPECT_NE(a, digest_order(corpus_order(100, 3, 22)));
}

TEST(Inputs, CorpusOrderVisitsEveryPlatformOncePerPass) {
  const std::vector<std::size_t> order = corpus_order(50, 2, 9);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t pass = 0; pass < 2; ++pass) {
    std::vector<int> seen(50, 0);
    for (std::size_t i = 0; i < 50; ++i) ++seen[order[pass * 50 + i]];
    for (int count : seen) EXPECT_EQ(count, 1);
  }
}

TEST(Inputs, ReferencePlatformIsTheServiceInstance) {
  const bt::Platform platform = reference_platform();
  EXPECT_EQ(platform.num_nodes(), 120u);
  EXPECT_EQ(platform.num_edges(), 1712u);
  EXPECT_EQ(digest_platforms({platform}), digest_platforms({reference_platform()}));
}

TEST(Inputs, StreamRotatesSourcesAndOnlyMutates) {
  const auto stream = mutation_stream(reference_platform(), kSources, 40, 3);
  ASSERT_EQ(stream.size(), 40u);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].source, kSources[i % kSources.size()]);
    EXPECT_TRUE(stream[i].kind == bt::ServiceRequestKind::kDegrade ||
                stream[i].kind == bt::ServiceRequestKind::kRestore);
  }
}

TEST(Percentile, IsNearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // 1..100, unsorted
  EXPECT_EQ(percentile(samples, 0.50), 50.0);
  EXPECT_EQ(percentile(samples, 0.90), 90.0);
  samples.push_back(101);  // n = 101: rank ceil(0.9 * 101) = 91
  EXPECT_EQ(percentile(samples, 0.90), 91.0);
  EXPECT_EQ(percentile(samples, 0.50), 51.0);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  std::vector<double> samples(99, 1.0);
  EXPECT_THROW(percentile(samples, 0.90), std::invalid_argument);  // 9 beyond rank 90
  samples.push_back(1.0);
  EXPECT_NO_THROW(percentile(samples, 0.90));  // 10 beyond rank 90
  EXPECT_THROW(percentile(std::vector<double>(999, 1.0), 0.99), std::invalid_argument);
  EXPECT_NO_THROW(percentile(std::vector<double>(1000, 1.0), 0.99));
  EXPECT_THROW(percentile(std::vector<double>(19, 1.0), 0.50), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.50), std::invalid_argument);
}

TEST(Percentile, MinSamplesMatchesTheRefusalRule) {
  EXPECT_EQ(min_samples_for(0.50), 20u);
  EXPECT_EQ(min_samples_for(0.90), 100u);
  EXPECT_EQ(min_samples_for(0.99), 1000u);
}

TEST(Tracer, CoverageIsTheChildShareOfEachRequest) {
  Tracer tracer;
  const std::int32_t root = tracer.begin(kRequestSpan, 0);
  tracer.end(tracer.begin("layer", 0, root));
  tracer.end(root);
  const double coverage = tracer.coverage_min();
  EXPECT_GE(coverage, 0.0);
  EXPECT_LE(coverage, 1.0);
  Tracer empty_request;
  empty_request.end(empty_request.begin(kRequestSpan, 1));
  EXPECT_EQ(empty_request.coverage_min(), 0.0);
}

}  // namespace
}  // namespace perfbench

#include "inputs.hpp"

#include "bench_util.hpp"
#include "platform/random_generator.hpp"
#include "platform/tiers_generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void add_platform(Digest& digest, const bt::Platform& platform) {
  digest.add(static_cast<std::uint64_t>(platform.num_nodes()));
  digest.add(static_cast<std::uint64_t>(platform.num_edges()));
  digest.add(static_cast<std::uint64_t>(platform.source()));
  digest.add(platform.slice_size());
  for (bt::EdgeId e = 0; e < platform.num_edges(); ++e) {
    digest.add(static_cast<std::uint64_t>(platform.graph().from(e)));
    digest.add(static_cast<std::uint64_t>(platform.graph().to(e)));
    digest.add(platform.link_cost(e).alpha);
    digest.add(platform.link_cost(e).beta);
  }
  for (bt::NodeId u = 0; u < platform.num_nodes(); ++u) {
    digest.add(platform.send_overhead(u));
    digest.add(platform.recv_overhead(u));
  }
}

}  // namespace

bt::Platform reference_platform() {
  constexpr std::size_t kNodes = 120;
  bt::Rng rng(kNodes * 104729);
  bt::RandomPlatformConfig config;
  config.num_nodes = kNodes;
  config.density = 0.12;
  return bt::generate_random_platform(config, rng);
}

std::vector<bt::ServiceRequest> mutation_stream(const bt::Platform& platform,
                                                const std::vector<bt::NodeId>& sources,
                                                std::size_t count, std::uint64_t seed) {
  bt::ServiceStreamConfig config;
  config.num_requests = count;
  config.mutation_fraction = 1.0;
  config.min_degrade_factor = 1.2;
  config.max_degrade_factor = 2.0;
  config.sources = sources;
  config.seed = seed;
  std::vector<bt::ServiceRequest> stream = bt::make_request_stream(platform, config);
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i].source = sources[i % sources.size()];
  return stream;
}

std::vector<bt::Platform> tiers_platforms(std::size_t count, std::uint64_t seed,
                                          std::vector<double>* generate_ms) {
  const bt::TiersConfig config = bt::tiers_config_for(120);
  bt::Rng rng(mix(seed));
  std::vector<bt::Platform> platforms;
  platforms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t start = now_ns();
    platforms.push_back(bt::generate_tiers_platform(config, rng));
    if (generate_ms) generate_ms->push_back(ns_to_ms(now_ns() - start));
  }
  return platforms;
}

std::vector<std::size_t> corpus_order(std::size_t corpus, std::size_t passes, std::uint64_t seed) {
  bt::Rng rng(mix(seed));
  std::vector<std::size_t> order;
  order.reserve(corpus * passes);
  for (std::size_t p = 0; p < passes; ++p) {
    const std::vector<std::size_t> pass = rng.permutation(corpus);
    order.insert(order.end(), pass.begin(), pass.end());
  }
  return order;
}

void apply_mutation(bt::Platform& platform, const bt::ServiceRequest& request) {
  if (request.kind == bt::ServiceRequestKind::kDegrade) {
    bt::LinkCost cost = platform.link_cost(request.edge);
    cost.alpha *= request.factor;
    cost.beta *= request.factor;
    platform.set_link_cost(request.edge, cost);
  } else {
    platform.set_link_cost(request.edge, request.cost);
  }
}

bool in_reference_sample(std::uint64_t seed, std::size_t index, std::size_t one_in) {
  return mix(seed ^ mix(index)) % one_in == 0;
}

std::string digest_platforms(const std::vector<bt::Platform>& platforms) {
  Digest digest;
  digest.add(static_cast<std::uint64_t>(platforms.size()));
  for (const bt::Platform& p : platforms) add_platform(digest, p);
  return digest.hex();
}

std::string digest_stream(const std::vector<bt::ServiceRequest>& stream) {
  Digest digest;
  digest.add(static_cast<std::uint64_t>(stream.size()));
  for (const bt::ServiceRequest& r : stream) {
    digest.add(static_cast<std::uint64_t>(r.kind));
    digest.add(static_cast<std::uint64_t>(r.source));
    digest.add(static_cast<std::uint64_t>(r.edge));
    digest.add(r.factor);
    digest.add(r.cost.alpha);
    digest.add(r.cost.beta);
  }
  return digest.hex();
}

std::string digest_order(const std::vector<std::size_t>& order) {
  Digest digest;
  digest.add(static_cast<std::uint64_t>(order.size()));
  for (std::size_t i : order) digest.add(static_cast<std::uint64_t>(i));
  return digest.hex();
}

}  // namespace perfbench

#pragma once

// Seeded inputs of the planner benchmark.  Everything a workload feeds the
// program -- platforms, mutation streams, which answers get the cold
// reference check -- is generated here from the workload seed before any
// timing starts, and summarized by a digest so runs can be compared for
// identical inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "experiments/service_eval.hpp"
#include "platform/platform.hpp"

namespace perfbench {

/// The service's reference platform: random n=120, density 0.12 (m=1712),
/// generated from the fixed seed the service bench and the ROADMAP use.
/// The workload seed varies the request stream, not this platform.
bt::Platform reference_platform();

/// `count` degrade/restore mutations over `platform`'s arcs (factors
/// 1.2-2.0, LIFO restores of pristine costs, as in make_request_stream),
/// with the source re-planned after each one rotating over `sources`.
std::vector<bt::ServiceRequest> mutation_stream(const bt::Platform& platform,
                                                const std::vector<bt::NodeId>& sources,
                                                std::size_t count, std::uint64_t seed);

/// `count` fresh Tiers platforms (tiers_config_for(120)) drawn from `seed`.
/// `generate_ms`, when given, receives the generation time of each.
std::vector<bt::Platform> tiers_platforms(std::size_t count, std::uint64_t seed,
                                          std::vector<double>* generate_ms = nullptr);

/// `passes` seeded permutations of 0..corpus-1, concatenated: the order in
/// which a run visits a fixed platform corpus.
std::vector<std::size_t> corpus_order(std::size_t corpus, std::size_t passes, std::uint64_t seed);

/// Apply one mutation request to a platform copy exactly as the service
/// applies it to its base platform.
void apply_mutation(bt::Platform& platform, const bt::ServiceRequest& request);

/// Whether request `index` is in the seeded sample checked against a cold
/// reference solve (about one in `one_in`).
bool in_reference_sample(std::uint64_t seed, std::size_t index, std::size_t one_in);

std::string digest_platforms(const std::vector<bt::Platform>& platforms);
std::string digest_stream(const std::vector<bt::ServiceRequest>& stream);
std::string digest_order(const std::vector<std::size_t>& order);

}  // namespace perfbench

/**
 * @file
 * Remnant of the removed logical-process engine: every pod now runs on
 * its cluster's one simulator. Kept only because perfbench/runner.cpp
 * reads these counters through core::ClusterServeSystem::lp(), which
 * always returns nullptr.
 */
#pragma once
#include <cstdint>
namespace windserve::sim {
struct LpScheduler {
    std::uint64_t windows() const { return 0; }
    std::uint64_t hub_phases() const { return 0; }
    std::uint64_t messages_posted() const { return 0; }
};
} // namespace windserve::sim

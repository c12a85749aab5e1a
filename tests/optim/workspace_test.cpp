// SolveWorkspace contract: buffers grow to the largest problem seen and
// then stay put, so steady-state barrier solves — including across
// heterogeneous problem sizes — perform zero math-layer heap
// allocations, and reuse never changes the answer.

#include "optim/workspace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "core/flow_nlp.hpp"
#include "math/alloc_stats.hpp"
#include "optim/barrier_solver.hpp"

namespace arb::optim {
namespace {

/// Symmetric profitable ring of length n: every edge trades against
/// (100, 150) reserves at unit node weights, so d = (1, ..., 1) is a
/// strictly feasible interior point of the one-cycle flow program.
core::FlowProblem ring(std::size_t n) {
  core::FlowInstance instance;
  instance.node_tokens.resize(n);
  instance.node_weight.assign(n, 1.0);
  instance.node_constrained.assign(n, 1);
  instance.support.emplace_back();
  for (std::size_t i = 0; i < n; ++i) {
    core::LoopHopData edge;
    edge.reserve_in = 100.0;
    edge.reserve_out = 150.0;
    edge.gamma = 0.997;
    instance.edges.push_back(edge);
    instance.edge_from.push_back(i);
    instance.edge_to.push_back((i + 1) % n);
    instance.support.back().push_back(i);
  }
  return core::FlowProblem(std::move(instance));
}

TEST(SolveWorkspaceTest, SteadyStateSolvesAreAllocationFree) {
  const core::FlowProblem problem = ring(3);
  const BarrierSolver solver;
  SolveWorkspace ws;
  BarrierReport report;
  const math::Vector start(3, 1.0);

  // Warm-up grows every buffer (workspace and report) to capacity.
  ASSERT_TRUE(solver.solve_into(problem, start, ws, report).ok());

  math::reset_allocation_count();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(solver.solve_into(problem, start, ws, report).ok());
  }
  EXPECT_EQ(math::allocation_count(), 0u);
  EXPECT_GT(-report.objective, 0.0);  // the ring is profitable
}

TEST(SolveWorkspaceTest, ReuseAcrossHeterogeneousSizesStaysAllocationFree) {
  const BarrierSolver solver;
  SolveWorkspace ws;
  BarrierReport report;

  // Warm up at the largest size; every smaller problem then fits in the
  // existing buffers.
  {
    const core::FlowProblem largest = ring(6);
    ASSERT_TRUE(
        solver.solve_into(largest, math::Vector(6, 1.0), ws, report).ok());
  }

  // The start point is staged in a workspace buffer (solve_into allows
  // x0 to alias ws members), so the whole round is allocation-free.
  math::reset_allocation_count();
  for (const std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{3},
                              std::size_t{6}, std::size_t{4}}) {
    const core::FlowProblem problem = ring(n);
    ws.candidate.assign(n, 1.0);
    ASSERT_TRUE(solver.solve_into(problem, ws.candidate, ws, report).ok())
        << n;
    EXPECT_EQ(report.x.size(), n);
  }
  EXPECT_EQ(math::allocation_count(), 0u);
}

TEST(SolveWorkspaceTest, ReuseDoesNotChangeTheAnswer) {
  const BarrierSolver solver;

  // Fresh workspace per solve: the reference.
  std::vector<double> reference;
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{4}, std::size_t{3}}) {
    const core::FlowProblem problem = ring(n);
    SolveWorkspace ws;
    BarrierReport report;
    ASSERT_TRUE(
        solver.solve_into(problem, math::Vector(n, 1.0), ws, report).ok());
    reference.push_back(report.objective);
  }

  // One reused workspace: bit-identical objectives in any order.
  SolveWorkspace ws;
  BarrierReport report;
  std::size_t k = 0;
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{4}, std::size_t{3}}) {
    const core::FlowProblem problem = ring(n);
    ASSERT_TRUE(
        solver.solve_into(problem, math::Vector(n, 1.0), ws, report).ok());
    EXPECT_EQ(report.objective, reference[k++]) << "size " << n;
  }
}

TEST(SolveWorkspaceTest, ReservePreallocatesEveryBuffer) {
  SolveWorkspace ws;
  ws.reserve(8);
  const std::uint64_t after_reserve = math::allocation_count();

  // Touching every buffer at the reserved size must not allocate.
  math::reset_allocation_count();
  ws.x.resize(8);
  ws.grad.resize(8);
  ws.neg_grad.resize(8);
  ws.direction.resize(8);
  ws.candidate.resize(8);
  ws.constraint_grad.resize(8);
  ws.problem_scratch.resize(8);
  ws.hess.assign(8, 8, 0.0);
  ws.constraint_hess.assign(8, 8, 0.0);
  EXPECT_EQ(math::allocation_count(), 0u);
  (void)after_reserve;
}

}  // namespace
}  // namespace arb::optim

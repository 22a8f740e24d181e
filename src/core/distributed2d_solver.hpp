// Distributed-memory LBM-IB solver (the paper's first future-work item:
// "extend the cube-based implementation from shared memory manycore
// systems to extreme-scale distributed memory manycore systems").
//
// The domain is split over an Rx x Ry rank mesh. Each rank owns an (x, y)
// tile of full-z columns in a private FluidGrid with one ghost layer on
// each of its four sides — no fluid state is shared. make_solver builds
// two mesh shapes: SolverKind::kDistributed is the R x 1 slab mesh (x
// slabs spanning the full y range), SolverKind::kDistributed2D the most
// balanced factorization of R (4 -> 2x2, 6 -> 3x2, prime R -> R x 1).
//
// Per time step each rank:
//   1. computes fiber forces on its *replicated* structure and spreads
//      them into its own tile only (no communication);
//   2. collides and push-streams locally, spilling tile-crossing
//      populations into the ghost layers;
//   3. exchanges halos: one packet to, and one from, each distinct
//      neighbour rank (below);
//   4. applies inlet/outlet conditions on the first/last x ranks;
//   5. updates macroscopic fields locally;
//   6. interpolates fiber velocities partially over its tile and
//      all-reduces the partial sums, after which every rank advances its
//      replica identically;
//   7. copies (or swaps) distribution buffers locally.
//
// Halo packets. A tile has eight halo parts: four faces (the 5
// populations crossing each x/y face) and four xy edges (the single
// population crossing each, one z-column). On small meshes several of
// the eight neighbours are the same rank — on an R x 1 mesh the three +x
// neighbours are one rank and the y neighbours are the rank itself — so
// each rank sends every distinct neighbour ONE packet per step holding
// all parts bound for it, in a fixed order, tagged with the step parity.
// With one packet per channel per step a lost packet leaves its receiver
// blocked (a hang the watchdog names) and a duplicated one is a tag
// mismatch at the next receive. Receivers skip slots whose sending-side
// source is a wall: those were filled locally by bounce-back.
//
// Ranks run as threads; porting to MPI replaces Communicator with MPI
// calls and nothing else.
#pragma once

#include <memory>
#include <vector>

#include "core/solver.hpp"
#include "parallel/barrier.hpp"
#include "parallel/communicator.hpp"

namespace lbmib {

class Distributed2DSolver final : public Solver {
 public:
  /// `kind` (kDistributed or kDistributed2D) picks the mesh shape and
  /// names the solver and its heartbeat/chaos sync points.
  explicit Distributed2DSolver(const SimulationParams& params,
                               SolverKind kind = SolverKind::kDistributed2D);

  void step() override;
  void run(Index num_steps, const StepObserver& observer = nullptr,
           Index observer_interval = 1) override;
  void restore_state(const FluidGrid& fluid, const Structure& structure,
                     Index step) override;
  std::string name() const override {
    return std::string(solver_kind_name(kind_));
  }

  int ranks_x() const { return rx_; }
  int ranks_y() const { return ry_; }

  /// Tile [x_lo, x_hi) x [y_lo, y_hi) owned by `rank`.
  struct Tile {
    Index x_lo, x_hi, y_lo, y_hi;
  };
  Tile tile_of(int rank) const;

  /// Halo packets and their payload bytes, summed over all ranks and all
  /// steps run so far.
  struct HaloTraffic {
    Size packets = 0;
    Size bytes = 0;
  };
  HaloTraffic halo_traffic() const;

 private:
  /// The halo parts (indices into the part table) sent to and received
  /// from one distinct neighbour rank.
  struct Link {
    int peer = 0;
    std::vector<int> send_parts, recv_parts;
  };
  struct Rank {
    Tile tile;
    std::unique_ptr<FluidGrid> grid;  // (lnx+2) x (lny+2) x nz w/ ghosts
    IbFootprint footprint;            // over the tile, block 1
    Structure structure;              // replica
    std::vector<Link> links;
    HaloTraffic sent;
  };
  /// Heartbeat / chaos labels (static strings, as ProgressBoard needs).
  struct SyncLabels {
    const char* race_context;
    const char* step;
    const char* step_start;
    const char* halo;
    const char* allreduce;
    const char* step_end;
    const char* observer;
  };

  void restore_fluid(const FluidGrid& fluid) override;
  void copy_fluid(FluidGrid& out) const override;
  Size recompute_stale_macroscopic() const override;

  /// Where a run starts: its first global step (halo tag parity), its
  /// first footprint stamp, and whether the force field is tracked.
  struct RunStart {
    Index step;
    IbFootprint::Stamp stamp;
    bool forces_tracked;
  };
  void rank_entry(int rank, const RunStart& start, Index num_steps,
                  const StepObserver& observer, Index observer_interval);
  void run_loop(Index num_steps, const StepObserver& observer,
                Index observer_interval);

  int rank_id(int tx, int ty) const {
    return ((tx + rx_) % rx_) * ry_ + ((ty + ry_) % ry_);
  }

  void stream_local(Rank& r);
  void exchange_halos(int rank, Index step);
  void spread_forces_local(Rank& r);
  void apply_inlet_outlet_local(Rank& r, int rank);
  void move_fibers_allreduce(Rank& r, int rank);

  SolverKind kind_;
  const SyncLabels* labels_;
  int rx_ = 1, ry_ = 1;
  std::vector<Rank> ranks_;
  Communicator comm_;
  // The fiber-velocity allreduce rides its own channels: on the halo
  // channels a lost halo packet would be followed by the sender's
  // allreduce partial, and the receiver would report a tag mismatch
  // instead of blocking until the watchdog trips.
  Communicator reduce_comm_;
  BlockingBarrier barrier_;
};

}  // namespace lbmib

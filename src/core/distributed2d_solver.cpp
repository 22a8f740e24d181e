#include "core/distributed2d_solver.hpp"

#include "common/error.hpp"
#include "core/phase.hpp"
#include "ib/fiber_forces.hpp"
#include "ib/footprint.hpp"
#include "ib/spreading.hpp"
#include "lbm/boundary.hpp"
#include "lbm/collision.hpp"
#include "lbm/d3q19.hpp"
#include "lbm/fused.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/mrt.hpp"
#include "lbm/streaming.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/race_detector.hpp"
#include "parallel/thread_team.hpp"

namespace lbmib {

namespace {

/// One halo part: its direction of travel (dx, dy) and the populations
/// crossing that face or xy edge. The table order is the packet order.
struct HaloPart {
  int dx, dy;
  int num_dirs;
  int dirs[5];
};
constexpr HaloPart kHaloParts[8] = {
    {+1, 0, 5, {1, 7, 9, 11, 13}},   // +x face
    {-1, 0, 5, {2, 8, 10, 12, 14}},  // -x face
    {0, +1, 5, {3, 7, 10, 15, 17}},  // +y face
    {0, -1, 5, {4, 8, 9, 16, 18}},   // -y face
    {+1, +1, 1, {7}},                // xy edges
    {+1, -1, 1, {9}},
    {-1, +1, 1, {10}},
    {-1, -1, 1, {8}},
};

/// Local index range [first, last] a part covers along one axis of
/// length n: the ghost layer it was pushed into (pack side) or the real
/// edge it lands on (unpack side); the whole interior when d == 0.
std::pair<Index, Index> ghost_span(int d, Index n) {
  if (d == 0) return {1, n};
  return d > 0 ? std::pair<Index, Index>{n + 1, n + 1}
               : std::pair<Index, Index>{0, 0};
}
std::pair<Index, Index> edge_span(int d, Index n) {
  if (d == 0) return {1, n};
  return d > 0 ? std::pair<Index, Index>{1, 1}
               : std::pair<Index, Index>{n, n};
}

/// Reals one part carries for a tile of lnx x lny columns of height nz.
Size part_size(const HaloPart& part, Index lnx, Index lny, Index nz) {
  const Index len_x = part.dx == 0 ? lnx : 1;
  const Index len_y = part.dy == 0 ? lny : 1;
  return static_cast<Size>(part.num_dirs * len_x * len_y * nz);
}

/// -1 / 0 / +1: local coordinate v lies in the low ghost, the interior or
/// the high ghost of an axis of length n.
int side(Index v, Index n) { return v < 1 ? -1 : (v > n ? 1 : 0); }

// Message tags: halo packets carry the step parity, so a stale duplicate
// never passes as the next step's packet.
constexpr int kTagHaloEven = 1, kTagHaloOdd = 2;
constexpr int kTagMoveReduce = 3;

/// Rx x Ry factorization of `n` with Rx >= Ry as balanced as possible.
std::pair<int, int> balanced_2d(int n) {
  int best_p = n, best_q = 1;
  for (int q = 1; q * q <= n; ++q) {
    if (n % q == 0) {
      best_q = q;
      best_p = n / q;
    }
  }
  return {best_p, best_q};
}

/// Calls f(local node, weight) for every node of the 4x4x4 delta stencil
/// around `pos` that falls in `tile` (x and y wrap over the global nx, ny
/// before clipping to the tile; z is not decomposed and just wraps).
template <typename F>
void for_each_tile_stencil_node(const Distributed2DSolver::Tile& tile,
                                const FluidGrid& grid, Index nx, Index ny,
                                const Vec3& pos, F&& f) {
  const InfluenceDomain d = influence_domain(pos);
  for (int a = 0; a < 4; ++a) {
    if (d.wx[a] == Real{0}) continue;
    const Index gx = FluidGrid::wrap(d.base[0] + a, nx);
    if (gx < tile.x_lo || gx >= tile.x_hi) continue;
    const Index lx = gx - tile.x_lo + 1;
    for (int b = 0; b < 4; ++b) {
      const Real wab = d.wx[a] * d.wy[b];
      if (wab == Real{0}) continue;
      const Index gy = FluidGrid::wrap(d.base[1] + b, ny);
      if (gy < tile.y_lo || gy >= tile.y_hi) continue;
      const Index ly = gy - tile.y_lo + 1;
      for (int c = 0; c < 4; ++c) {
        const Real w = wab * d.wz[c];
        if (w == Real{0}) continue;
        const Index gz = FluidGrid::wrap(d.base[2] + c, grid.nz());
        f(grid.index(lx, ly, gz), w);
      }
    }
  }
}

}  // namespace

Distributed2DSolver::Distributed2DSolver(const SimulationParams& params,
                                         SolverKind kind)
    : Solver(params, params.num_threads),
      kind_(kind),
      comm_(params.num_threads),
      reduce_comm_(params.num_threads),
      barrier_(params.num_threads) {
  static constexpr SyncLabels kSlabLabels{
      "distributed solver",           "distributed:step",
      "distributed:step:start",       "distributed:halo",
      "distributed:allreduce",        "distributed:barrier:step-end",
      "distributed:barrier:observer"};
  static constexpr SyncLabels kTileLabels{
      "distributed 2d solver",          "distributed2d:step",
      "distributed2d:step:start",       "distributed2d:halo",
      "distributed2d:allreduce",        "distributed2d:barrier:step-end",
      "distributed2d:barrier:observer"};
  require(kind == SolverKind::kDistributed ||
              kind == SolverKind::kDistributed2D,
          "distributed solver kind must be distributed or distributed2d");
  labels_ = kind == SolverKind::kDistributed ? &kSlabLabels : &kTileLabels;
  const auto [rx, ry] = kind == SolverKind::kDistributed
                            ? std::pair<int, int>{params.num_threads, 1}
                            : balanced_2d(params.num_threads);
  rx_ = rx;
  ry_ = ry;
  require(params.nx >= rx_ && params.ny >= ry_,
          "2-D decomposition needs at least one column per rank in each "
          "axis");
  if (uses_inlet_outlet(params.boundary)) {
    require(params.nx / rx_ >= 2,
            "inlet/outlet needs two x-columns on the boundary ranks");
  }

  ranks_.resize(static_cast<Size>(params.num_threads));
  for (int r = 0; r < params.num_threads; ++r) {
    const int tx = r / ry_, ty = r % ry_;
    Rank& rank = ranks_[static_cast<Size>(r)];
    rank.tile.x_lo = params.nx * tx / rx_;
    rank.tile.x_hi = params.nx * (tx + 1) / rx_;
    rank.tile.y_lo = params.ny * ty / ry_;
    rank.tile.y_hi = params.ny * (ty + 1) / ry_;
    const Index lnx = rank.tile.x_hi - rank.tile.x_lo;
    const Index lny = rank.tile.y_hi - rank.tile.y_lo;
    rank.grid = std::make_unique<FluidGrid>(lnx + 2, lny + 2, params.nz,
                                            params.rho0,
                                            params.initial_velocity);
    // Mask every local cell (ghosts included) by its global position.
    for (Index lx = 0; lx <= lnx + 1; ++lx) {
      const Index gx = FluidGrid::wrap(rank.tile.x_lo + lx - 1, params.nx);
      for (Index ly = 0; ly <= lny + 1; ++ly) {
        const Index gy =
            FluidGrid::wrap(rank.tile.y_lo + ly - 1, params.ny);
        for (Index gz = 0; gz < params.nz; ++gz) {
          if (is_boundary_solid(params, gx, gy, gz)) {
            rank.grid->set_solid(rank.grid->index(lx, ly, gz), true);
          }
        }
      }
    }
    if (params.boundary == BoundaryType::kCavity) {
      rank.grid->set_lid_velocity(params.lid_velocity);
    }
    rank.grid->reset_forces(params.body_force);
    rank.footprint =
        IbFootprint(params.nx, params.ny, 1, rank.tile.x_lo, rank.tile.x_hi,
                    rank.tile.y_lo, rank.tile.y_hi);
    rank.structure = make_structure(params);
    // One link per distinct neighbour rank: part p travels to the rank
    // at (tx + dx, ty + dy) and arrives from the one at (tx - dx, ty - dy).
    auto link_to = [&](int peer) -> Link& {
      for (Link& l : rank.links) {
        if (l.peer == peer) return l;
      }
      rank.links.push_back(Link{peer, {}, {}});
      return rank.links.back();
    };
    for (int p = 0; p < 8; ++p) {
      const HaloPart& part = kHaloParts[p];
      link_to(rank_id(tx + part.dx, ty + part.dy)).send_parts.push_back(p);
      link_to(rank_id(tx - part.dx, ty - part.dy)).recv_parts.push_back(p);
    }
  }
}


Distributed2DSolver::Tile Distributed2DSolver::tile_of(int rank) const {
  return ranks_[static_cast<Size>(rank)].tile;
}

Distributed2DSolver::HaloTraffic Distributed2DSolver::halo_traffic() const {
  HaloTraffic total;
  for (const Rank& r : ranks_) {
    total.packets += r.sent.packets;
    total.bytes += r.sent.bytes;
  }
  return total;
}

void Distributed2DSolver::stream_local(Rank& r) {
  using namespace d3q19;
  FluidGrid& grid = *r.grid;
  const Index lnx = r.tile.x_hi - r.tile.x_lo;
  const Index lny = r.tile.y_hi - r.tile.y_lo;
  const Index nz = grid.nz();

  const bool has_lid = grid.has_lid();
  Real lid_corr[kQ] = {};
  if (has_lid) {
    for (int dir = 0; dir < kQ; ++dir) {
      lid_corr[dir] = 2 * w[static_cast<Size>(dir)] * inv_cs2 *
                      dot(c(dir), grid.lid_velocity());
    }
  }

  for (Index lx = 1; lx <= lnx; ++lx) {
    for (Index ly = 1; ly <= lny; ++ly) {
      for (Index z = 0; z < nz; ++z) {
        const Size src = grid.index(lx, ly, z);
        if (grid.solid(src)) continue;
        grid.df_new(0, src) = grid.df(0, src);
        for (int dir = 1; dir < kQ; ++dir) {
          // x/y targets always land inside the ghosted local grid;
          // only z wraps (it is not decomposed).
          const Index tx = lx + cx[static_cast<Size>(dir)];
          const Index ty = ly + cy[static_cast<Size>(dir)];
          const Index tz =
              FluidGrid::wrap(z + cz[static_cast<Size>(dir)], nz);
          const Size dst = grid.index(tx, ty, tz);
          if (grid.solid(dst)) {
            Real v = grid.df(dir, src);
            if (has_lid && tz == nz - 1) v -= lid_corr[dir];
            grid.df_new(opposite(dir), src) = v;
          } else {
            grid.df_new(dir, dst) = grid.df(dir, src);
          }
        }
      }
    }
  }
}

void Distributed2DSolver::exchange_halos(int rank, Index step) {
  using namespace d3q19;
  LBMIB_TRACE_SPAN(obs::SpanCat::kHalo, "exchange_halos",
                   static_cast<std::int64_t>(rank));
  Rank& r = ranks_[static_cast<Size>(rank)];
  LBMIB_TRACE_ON(if (obs::Tracer::active()) {
    obs::metric_halo_exchanges().inc(static_cast<double>(r.links.size()));
  })
  FluidGrid& grid = *r.grid;
  const Index lnx = r.tile.x_hi - r.tile.x_lo;
  const Index lny = r.tile.y_hi - r.tile.y_lo;
  const Index nz = grid.nz();
  const int tag = step % 2 == 0 ? kTagHaloEven : kTagHaloOdd;

  // The tile grid is rank-private, so one coarse read (packing the ghost
  // shell) and one write (unpacking into the real edge columns) record
  // the exchange; cross-rank ordering rides on the channel hooks.
  LBMIB_RACE_CHECK(
      race::access_range(&grid, 0, static_cast<Size>(lnx) + 2,
                         RaceField::kDfNew, RaceAccess::kRead,
                         "exchange_halos: pack");
      race::access_range(&grid, 1, static_cast<Size>(lnx) + 1,
                         RaceField::kDfNew, RaceAccess::kWrite,
                         "exchange_halos: unpack");)

  // Send first (buffered, never blocks), then receive — deadlock-free for
  // any mesh, including a rank that is its own neighbour.
  for (const Link& link : r.links) {
    std::vector<Real> data;
    Size size = 0;
    for (const int p : link.send_parts) {
      size += part_size(kHaloParts[p], lnx, lny, nz);
    }
    data.reserve(size);
    for (const int p : link.send_parts) {
      const HaloPart& part = kHaloParts[p];
      const auto [x0, x1] = ghost_span(part.dx, lnx);
      const auto [y0, y1] = ghost_span(part.dy, lny);
      for (int d = 0; d < part.num_dirs; ++d) {
        for (Index lx = x0; lx <= x1; ++lx) {
          for (Index ly = y0; ly <= y1; ++ly) {
            for (Index z = 0; z < nz; ++z) {
              data.push_back(grid.df_new(part.dirs[d], grid.index(lx, ly, z)));
            }
          }
        }
      }
    }
    r.sent.packets += 1;
    r.sent.bytes += data.size() * sizeof(Real);
    comm_.send(rank, link.peer, Message{tag, std::move(data)});
  }

  // A slot is taken only when its sending-side source lies in the region
  // the part came from (an edge-diagonal slot on a face arrives with the
  // xy-edge part instead) and is not a wall (wall-sourced slots were
  // bounce-filled locally).
  for (const Link& link : r.links) {
    const std::vector<Real> data = comm_.recv(rank, link.peer, tag).data;
    Size i = 0;
    for (const int p : link.recv_parts) {
      const HaloPart& part = kHaloParts[p];
      const auto [x0, x1] = edge_span(part.dx, lnx);
      const auto [y0, y1] = edge_span(part.dy, lny);
      for (int d = 0; d < part.num_dirs; ++d) {
        const int dir = part.dirs[d];
        const Index cxd = cx[static_cast<Size>(dir)];
        const Index cyd = cy[static_cast<Size>(dir)];
        const Index czd = cz[static_cast<Size>(dir)];
        for (Index lx = x0; lx <= x1; ++lx) {
          for (Index ly = y0; ly <= y1; ++ly) {
            for (Index z = 0; z < nz; ++z, ++i) {
              const Size dst = grid.index(lx, ly, z);
              if (grid.solid(dst)) continue;
              const Index sx = lx - cxd, sy = ly - cyd;
              if (side(sx, lnx) != -part.dx || side(sy, lny) != -part.dy) {
                continue;
              }
              const Size src = grid.index(sx, sy, FluidGrid::wrap(z - czd, nz));
              if (!grid.solid(src)) grid.df_new(dir, dst) = data[i];
            }
          }
        }
      }
    }
  }
}

void Distributed2DSolver::spread_forces_local(Rank& r) {
  for (const FiberSheet& sheet : r.structure) {
    const Real area = sheet.node_area();
    for (Size i = 0; i < sheet.num_nodes(); ++i) {
      const Vec3 force = area * sheet.elastic_force(i);
      for_each_tile_stencil_node(
          r.tile, *r.grid, params_.nx, params_.ny, sheet.position(i),
          [&](Size node, Real w) { r.grid->add_force(node, w * force); });
    }
  }
}

void Distributed2DSolver::apply_inlet_outlet_local(Rank& r, int rank) {
  using namespace d3q19;
  FluidGrid& grid = *r.grid;
  const Index lnx = r.tile.x_hi - r.tile.x_lo;
  const Index lny = r.tile.y_hi - r.tile.y_lo;
  const Index nz = grid.nz();
  const int tx = rank / ry_;
  auto streamed_moments = [&](Size node, Real& rho, Vec3& u) {
    rho = 0.0;
    Vec3 mom{};
    for (int dir = 0; dir < kQ; ++dir) {
      const Real g = grid.df_new(dir, node);
      rho += g;
      mom += g * c(dir);
    }
    u = mom / rho;
  };
  if (tx == 0) {
    for (Index ly = 1; ly <= lny; ++ly) {
      for (Index z = 0; z < nz; ++z) {
        const Size node = grid.index(1, ly, z);
        if (grid.solid(node)) continue;
        Real rho_b;
        Vec3 u_ignored;
        streamed_moments(grid.index(2, ly, z), rho_b, u_ignored);
        for (int dir = 0; dir < kQ; ++dir) {
          grid.df_new(dir, node) =
              equilibrium(dir, rho_b, params_.inlet_velocity);
        }
      }
    }
  }
  if (tx == rx_ - 1) {
    for (Index ly = 1; ly <= lny; ++ly) {
      for (Index z = 0; z < nz; ++z) {
        const Size node = grid.index(lnx, ly, z);
        if (grid.solid(node)) continue;
        Real rho_up;
        Vec3 u_up;
        streamed_moments(grid.index(lnx - 1, ly, z), rho_up, u_up);
        for (int dir = 0; dir < kQ; ++dir) {
          grid.df_new(dir, node) = equilibrium(dir, Real{1}, u_up);
        }
      }
    }
  }
}

void Distributed2DSolver::move_fibers_allreduce(Rank& r, int rank) {
  const Size total_nodes = structure_num_nodes(r.structure);
  if (total_nodes == 0) return;
  std::vector<Real> partial(3 * total_nodes, 0.0);

  Size base = 0;
  for (const FiberSheet& sheet : r.structure) {
    for (Size i = 0; i < sheet.num_nodes(); ++i) {
      Vec3 u{};
      for_each_tile_stencil_node(
          r.tile, *r.grid, params_.nx, params_.ny, sheet.position(i),
          [&](Size node, Real w) { u += w * r.grid->velocity(node); });
      partial[3 * (base + i) + 0] = u.x;
      partial[3 * (base + i) + 1] = u.y;
      partial[3 * (base + i) + 2] = u.z;
    }
    base += sheet.num_nodes();
  }

  const std::vector<Real> total =
      reduce_comm_.allreduce_sum(rank, std::move(partial), kTagMoveReduce);

  base = 0;
  for (FiberSheet& sheet : r.structure) {
    for (Size i = 0; i < sheet.num_nodes(); ++i) {
      if (sheet.immobile(i)) continue;
      sheet.position(i) += Vec3{total[3 * (base + i) + 0],
                                total[3 * (base + i) + 1],
                                total[3 * (base + i) + 2]};
    }
    base += sheet.num_nodes();
  }
}

void Distributed2DSolver::rank_entry(int rank, const RunStart& start,
                                     Index num_steps,
                                     const StepObserver& observer,
                                     Index observer_interval) {
  Rank& r = ranks_[static_cast<Size>(rank)];
  KernelProfiler& prof = thread_profiles_[static_cast<Size>(rank)];
  FluidGrid& grid = *r.grid;
  LBMIB_RACE_CHECK(race::context(labels_->race_context);)
  const Index lnx = r.tile.x_hi - r.tile.x_lo;
  const Index lny = r.tile.y_hi - r.tile.y_lo;
  const Size row = static_cast<Size>(lny + 2) *
                   static_cast<Size>(grid.nz());

  // Contiguous real-node run for local x-row lx: ly in [1, lny], all z.
  auto row_range = [&](Index lx) {
    const Size begin = static_cast<Size>(lx) * row +
                       static_cast<Size>(grid.nz());
    const Size end =
        begin + static_cast<Size>(lny) * static_cast<Size>(grid.nz());
    return std::pair<Size, Size>{begin, end};
  };
  // Fused pipeline (DESIGN.md §11): the force reset and kernel 7 touch
  // only the tile rows of the IB footprint. Local x-row lx holds the
  // footprint columns [(lx-1) * lny, lx * lny).
  const bool fused = params_.fused_step;
  const Size tile_cols = static_cast<Size>(lny);
  auto over_tile_rows = [&](auto&& pass) {
    Size nodes = 0;
    for (Index lx = 1; lx <= lnx; ++lx) {
      const Size c0 = static_cast<Size>(lx - 1) * tile_cols;
      nodes += pass(c0, c0 + tile_cols, row_range(lx).first);
    }
    return nodes;
  };

  for (Index step = 0; step < num_steps; ++step) {
    LBMIB_TRACE_SPAN(obs::SpanCat::kStep, "step",
                     static_cast<std::int64_t>(start.step + step));
    cancel_point(labels_->step);
    sync_point(labels_->step_start, rank, step);
    const IbFootprint::Stamp stamp =
        start.stamp + static_cast<IbFootprint::Stamp>(step);
    // Kernels 1-4 on the replica, spread into the own tile only.
    {
      const PhaseScope phase(prof, Kernel::kBendingForce, fused);
      for (FiberSheet& sheet : r.structure) {
        compute_bending_force(sheet, 0, sheet.num_fibers());
      }
    }
    {
      const PhaseScope phase(prof, Kernel::kStretchingForce, fused);
      for (FiberSheet& sheet : r.structure) {
        compute_stretching_force(sheet, 0, sheet.num_fibers());
      }
    }
    {
      const PhaseScope phase(prof, Kernel::kElasticForce, fused);
      for (FiberSheet& sheet : r.structure) {
        compute_elastic_force(sheet, 0, sheet.num_fibers());
      }
    }
    {
      const PhaseScope phase(prof, Kernel::kSpreadForce, fused);
      if (fused && (step > 0 || start.forces_tracked)) {
        over_tile_rows([&](Size c0, Size c1, Size node) {
          return reset_forces_on_footprint(grid, r.footprint, stamp - 1, c0,
                                           c1, node, params_.body_force);
        });
      } else {
        grid.reset_forces(params_.body_force);
      }
      if (fused) {
        for (const FiberSheet& sheet : r.structure) {
          r.footprint.mark(sheet, 0, sheet.num_fibers(), stamp);
        }
      }
      spread_forces_local(r);
    }
    // Kernel 6's communication half, the halo exchange, closes the
    // streaming phase: the fused sweep's (kernels 5+6, x/y pushes land
    // in the ghost layers, z wraps — the tile variant mirrors
    // stream_local exactly) or the reference pipeline's stream.
    if (fused) {
      const PhaseScope phase(prof, Kernel::kCollision, fused);
      fused_collide_stream_tile(grid, params_.tau, mrt_.get(), 1, lnx, 1,
                                lny, params_.simd_step);
      sync_point(labels_->halo, rank, step);
      exchange_halos(rank, start.step + step);
    } else {
      {
        const PhaseScope phase(prof, Kernel::kCollision, fused);
        for (Index lx = 1; lx <= lnx; ++lx) {
          const auto [begin, end] = row_range(lx);
          if (mrt_) {
            mrt_collide_range(grid, *mrt_, begin, end);
          } else {
            collide_range(grid, params_.tau, begin, end);
          }
        }
      }
      const PhaseScope phase(prof, Kernel::kStreaming, fused);
      stream_local(r);
      sync_point(labels_->halo, rank, step);
      exchange_halos(rank, start.step + step);
    }
    {  // kernel 7 (+ boundary pass)
      const PhaseScope phase(prof, Kernel::kUpdateVelocity, fused);
      if (uses_inlet_outlet(params_.boundary)) {
        apply_inlet_outlet_local(r, rank);
      }
      if (fused) {
        count_velocity_update(
            over_tile_rows([&](Size c0, Size c1, Size node) {
              return update_velocity_on_footprint(grid, r.footprint, stamp,
                                                  c0, c1, node);
            }));
      } else {
        Size nodes = 0;
        for (Index lx = 1; lx <= lnx; ++lx) {
          const auto [begin, end] = row_range(lx);
          update_velocity_range(grid, begin, end);
          nodes += end - begin;
        }
        count_velocity_update(nodes);
      }
    }
    {  // kernel 8
      const PhaseScope phase(prof, Kernel::kMoveFibers, fused);
      sync_point(labels_->allreduce, rank, step);
      move_fibers_allreduce(r, rank);
    }
    {  // kernel 9: per-rank O(1) swap when fused. The ghost layers' df
       // goes stale under the swap, but ghost df is never read — collision
       // touches only the real tile and the halo exchange reads df_new.
      const PhaseScope phase(prof, Kernel::kCopyDistribution, fused);
      if (fused) {
        grid.swap_buffers();
      } else {
        for (Index lx = 1; lx <= lnx; ++lx) {
          const auto [begin, end] = row_range(lx);
          copy_distributions_range(grid, begin, end);
        }
      }
    }

    sync_point(labels_->step_end, rank, step, &barrier_);
    if (rank == 0) {
      // Only rank 0 touches the solver's bookkeeping; the others derive
      // their stamps from `start`.
      ++steps_completed_;
      if (fused) finish_fused_steps(stamp);
    }
    if (observer && ((step + 1) % observer_interval == 0)) {
      if (rank == 0) {
        structure_ = r.structure;
        observer(*this, steps_completed_ - 1);
      }
      sync_point(labels_->observer, rank, step, &barrier_);
    }
  }
}

void Distributed2DSolver::run_loop(Index num_steps,
                                   const StepObserver& observer,
                                   Index observer_interval) {
  // Halo tags carry the global step parity, fixed before the team starts,
  // as are the footprint stamps and the force-tracking state.
  const RunStart start{steps_completed_, footprint_stamp_ + 1,
                       forces_tracked_};
  ThreadTeam team(params_.num_threads);
  team.run([&](int rank) {
    rank_entry(rank, start, num_steps, observer, observer_interval);
  });
  structure_ = ranks_[0].structure;
}

void Distributed2DSolver::step() { run_loop(1, nullptr, 1); }

void Distributed2DSolver::run(Index num_steps, const StepObserver& observer,
                              Index observer_interval) {
  require(observer_interval >= 1, "observer interval must be >= 1");
  if (num_steps <= 0) return;
  run_loop(num_steps, observer, observer_interval);
}

void Distributed2DSolver::restore_fluid(const FluidGrid& fluid) {
  // Refill every rank's tile INCLUDING the four ghost layers from the
  // wrapped global coordinates (the constructor's solid-mask rule):
  // correct for periodic axes, inert where the edge layers are walls.
  for (Rank& r : ranks_) {
    FluidGrid& grid = *r.grid;
    for (Index lx = 0; lx <= r.tile.x_hi - r.tile.x_lo + 1; ++lx) {
      const Index gx = FluidGrid::wrap(r.tile.x_lo + lx - 1, params_.nx);
      for (Index ly = 0; ly <= r.tile.y_hi - r.tile.y_lo + 1; ++ly) {
        const Index gy = FluidGrid::wrap(r.tile.y_lo + ly - 1, params_.ny);
        for (Index z = 0; z < params_.nz; ++z) {
          const Size src = fluid.index(gx, gy, z);
          const Size dst = grid.index(lx, ly, z);
          for (int dir = 0; dir < kQ; ++dir) {
            grid.df(dir, dst) = fluid.df(dir, src);
            grid.df_new(dir, dst) = fluid.df_new(dir, src);
          }
          grid.rho(dst) = fluid.rho(src);
          grid.set_velocity(dst, fluid.velocity(src));
          grid.fx(dst) = fluid.fx(src);
          grid.fy(dst) = fluid.fy(src);
          grid.fz(dst) = fluid.fz(src);
          grid.set_solid(dst, fluid.solid(src));
        }
      }
    }
  }
}

void Distributed2DSolver::restore_state(const FluidGrid& fluid,
                                        const Structure& structure,
                                        Index step) {
  Solver::restore_state(fluid, structure, step);
  for (Rank& r : ranks_) r.structure = structure_;
}

Size Distributed2DSolver::recompute_stale_macroscopic() const {
  Size nodes = 0;
  for (const Rank& r : ranks_) {
    const Index lnx = r.tile.x_hi - r.tile.x_lo;
    const Size lny = static_cast<Size>(r.tile.y_hi - r.tile.y_lo);
    for (Index lx = 1; lx <= lnx; ++lx) {
      const Size c0 = static_cast<Size>(lx - 1) * lny;
      nodes += materialize_velocity_off_footprint(
          *r.grid, r.footprint, footprint_stamp_, c0, c0 + lny,
          r.grid->index(lx, 1, 0));
    }
  }
  return nodes;
}

void Distributed2DSolver::copy_fluid(FluidGrid& out) const {
  require(out.nx() == params_.nx && out.ny() == params_.ny &&
              out.nz() == params_.nz,
          "snapshot grid dimensions do not match");
  for (const Rank& r : ranks_) {
    const FluidGrid& grid = *r.grid;
    for (Index gx = r.tile.x_lo; gx < r.tile.x_hi; ++gx) {
      for (Index gy = r.tile.y_lo; gy < r.tile.y_hi; ++gy) {
        const Index lx = gx - r.tile.x_lo + 1;
        const Index ly = gy - r.tile.y_lo + 1;
        for (Index z = 0; z < params_.nz; ++z) {
          const Size src = grid.index(lx, ly, z);
          const Size dst = out.index(gx, gy, z);
          for (int dir = 0; dir < kQ; ++dir) {
            out.df(dir, dst) = grid.df(dir, src);
            out.df_new(dir, dst) = grid.df_new(dir, src);
          }
          out.rho(dst) = grid.rho(src);
          out.set_velocity(dst, grid.velocity(src));
          out.fx(dst) = grid.fx(src);
          out.fy(dst) = grid.fy(src);
          out.fz(dst) = grid.fz(src);
          out.set_solid(dst, grid.solid(src));
        }
      }
    }
  }
}

}  // namespace lbmib

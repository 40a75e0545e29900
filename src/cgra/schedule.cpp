#include "cgra/schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "cgra/lower.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace citl::cgra {

namespace {

/// One step of the deterministic L-shaped route: rows first, then columns.
PeId route_step(PeId cur, PeId to) {
  if (cur.row != to.row) {
    cur.row += (to.row > cur.row) ? 1 : -1;
  } else {
    cur.col += (to.col > cur.col) ? 1 : -1;
  }
  return cur;
}

/// Mutable occupancy tables used while scheduling, flat (cycle x PE): a
/// PE's busy flag and a route port's use count per cycle. Cycles past the
/// table's end are free; reserving grows it.
class Occupancy {
 public:
  explicit Occupancy(const CgraArch& arch)
      : pes_(static_cast<std::size_t>(arch.pe_count())) {}

  [[nodiscard]] bool pe_free(int pe, unsigned start, unsigned len) const {
    const unsigned end = std::min(start + len, cycles());
    for (unsigned c = start; c < end; ++c) {
      if (busy_[at(c, pe)] != 0) return false;
    }
    return true;
  }

  void reserve_pe(int pe, unsigned start, unsigned len) {
    grow(start + len);
    for (unsigned c = start; c < start + len; ++c) busy_[at(c, pe)] = 1;
  }

  [[nodiscard]] unsigned route_used(int pe, unsigned cycle) const {
    return cycle < cycles() ? route_[at(cycle, pe)] : 0u;
  }

  void reserve_route(int pe, unsigned cycle) {
    grow(cycle + 1);
    ++route_[at(cycle, pe)];
  }

 private:
  [[nodiscard]] unsigned cycles() const noexcept {
    return static_cast<unsigned>(busy_.size() / pes_);
  }
  [[nodiscard]] std::size_t at(unsigned cycle, int pe) const noexcept {
    return static_cast<std::size_t>(cycle) * pes_ +
           static_cast<std::size_t>(pe);
  }
  void grow(unsigned cycles_needed) {
    if (cycles_needed <= cycles()) return;
    busy_.resize(static_cast<std::size_t>(cycles_needed) * pes_, 0);
    route_.resize(busy_.size(), 0);
  }

  std::size_t pes_;
  std::vector<std::uint8_t> busy_;
  std::vector<std::uint8_t> route_;
};

class ListScheduler {
 public:
  ListScheduler(const Dfg& dfg, const CgraArch& arch)
      : dfg_(dfg), arch_(arch), occ_(arch) {}

  Schedule run() {
    arch_.validate();
    dfg_.validate();
    check_capabilities();

    const auto crit = dfg_.criticality(arch_.latency);
    const std::size_t n = dfg_.size();
    const auto pes = static_cast<std::size_t>(arch_.pe_count());
    placement_.resize(n);
    delivered_.assign(n * pes, kUndelivered);

    // Intra-iteration edges: `pending` counts each node's incoming edges
    // (duplicates included, so a node becomes ready exactly when its last
    // operand is placed); pred_[pred_offset_[v] .. pred_offset_[v + 1])
    // holds v's predecessors sorted and deduplicated (a node may use the
    // same value twice, x*x; one delivery suffices).
    const Dfg::Successors succ = dfg_.intra_successors();
    std::vector<int> pending(n, 0);
    for (NodeId s : succ.succ) ++pending[static_cast<std::size_t>(s)];
    pred_offset_.assign(n + 1, 0);
    pred_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t first = pred_.size();
      dfg_.for_each_intra_pred(static_cast<NodeId>(i),
                               [this](NodeId p) { pred_.push_back(p); });
      const auto begin = pred_.begin() + static_cast<std::ptrdiff_t>(first);
      std::sort(begin, pred_.end());
      pred_.erase(std::unique(begin, pred_.end()), pred_.end());
      pred_offset_[i + 1] = pred_.size();
    }

    std::vector<NodeId> ready;
    for (std::size_t i = 0; i < n; ++i) {
      if (pending[i] == 0) ready.push_back(static_cast<NodeId>(i));
    }

    std::size_t scheduled = 0;
    while (scheduled < n) {
      CITL_CHECK_MSG(!ready.empty(), "scheduler wedged: no ready node");
      // Pick the ready node with the longest remaining critical path.
      std::size_t best = 0;
      for (std::size_t i = 1; i < ready.size(); ++i) {
        const auto a = static_cast<std::size_t>(ready[i]);
        const auto b = static_cast<std::size_t>(ready[best]);
        if (crit[a] > crit[b] || (crit[a] == crit[b] && ready[i] < ready[best])) {
          best = i;
        }
      }
      const NodeId v = ready[best];
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
      place(v);
      ++scheduled;
      const auto vi = static_cast<std::size_t>(v);
      for (std::size_t k = succ.offset[vi]; k < succ.offset[vi + 1]; ++k) {
        const NodeId s = succ.succ[k];
        if (--pending[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
      }
    }

    Schedule sched;
    sched.placement = std::move(placement_);
    sched.hops = std::move(hops_);
    unsigned length = 0;
    for (const auto& p : sched.placement) length = std::max(length, p.finish);
    // Cross-iteration edges (pipeline registers, state feedback) must close
    // within one initiation interval: value written in iteration k, read in
    // iteration k+1 => start[consumer] + L >= finish[producer] + distance.
    for (std::size_t i = 0; i < dfg_.size(); ++i) {
      const Node& node = dfg_.node(static_cast<NodeId>(i));
      for (unsigned a = 0; a < node.arity(); ++a) {
        const NodeId p = node.args[a];
        if (!dfg_.is_pipeline_edge(p, static_cast<NodeId>(i))) continue;
        length = std::max(length, cross_iteration_bound(
                                      sched, p, static_cast<NodeId>(i)));
      }
    }
    for (const auto& sv : dfg_.states()) {
      length = std::max(length, cross_iteration_bound(sched, sv.update, sv.node));
    }
    sched.length = length;
    return sched;
  }

 private:
  static constexpr unsigned kUndelivered = ~0u;

  [[nodiscard]] unsigned cross_iteration_bound(const Schedule& sched,
                                               NodeId producer,
                                               NodeId consumer) const {
    const auto& pp = sched.placement[static_cast<std::size_t>(producer)];
    const auto& pc = sched.placement[static_cast<std::size_t>(consumer)];
    const int d = CgraArch::distance(pp.pe, pc.pe);
    const long need = static_cast<long>(pp.finish) + d -
                      static_cast<long>(pc.start);
    return need > 0 ? static_cast<unsigned>(need) : 0u;
  }

  void check_capabilities() const {
    for (const Node& node : dfg_.nodes()) {
      const OpClass c = op_class(node.kind);
      bool ok = false;
      for (const auto& pe : arch_.pes) {
        if (pe.supports(c)) {
          ok = true;
          break;
        }
      }
      if (!ok) {
        throw ConfigError(std::string("no PE supports operator class for '") +
                          std::string(op_name(node.kind)) + "'");
      }
    }
  }

  /// delivered_ slot of (value, PE index): the cycle the value is known to
  /// sit at that PE's input, or kUndelivered.
  [[nodiscard]] unsigned& delivered(NodeId value, int pe) {
    return delivered_[static_cast<std::size_t>(value) *
                          static_cast<std::size_t>(arch_.pe_count()) +
                      static_cast<std::size_t>(pe)];
  }

  /// Earliest cycle at which `value` (already placed) can be delivered to
  /// `dest`, given route-port availability; appends the chosen forwarding
  /// slots to `hops` (not yet globally reserved). Slots already planned in
  /// `hops` for this candidate count against the port budget too — two
  /// operands of one node may contend for the same intermediate PE.
  [[nodiscard]] unsigned plan_delivery(NodeId value, PeId dest,
                                       std::vector<RouteHop>* hops) {
    const auto& pp = placement_[static_cast<std::size_t>(value)];
    const unsigned cached = delivered(value, arch_.index(dest));
    if (cached != kUndelivered) return cached;
    const int path_len = CgraArch::distance(pp.pe, dest);
    if (path_len == 0) return pp.finish;  // produced in place
    // occ_.route_used plus the hops already planned for this candidate must
    // leave a free port.
    auto slot_free = [&](PeId pe, unsigned cycle) {
      unsigned used = occ_.route_used(arch_.index(pe), cycle);
      for (const RouteHop& h : *hops) {
        if (h.pe == pe && h.cycle == cycle) ++used;
      }
      return used < arch_.route_ports_per_pe;
    };
    // Try increasing departure delays until all intermediate route ports
    // are free. The final hop lands in the consumer's input register and
    // does not occupy a route port.
    for (unsigned delay = 0;; ++delay) {
      bool ok = true;
      PeId pe = pp.pe;
      for (int h = 0; h + 1 < path_len; ++h) {
        pe = route_step(pe, dest);
        if (!slot_free(pe, pp.finish + delay + static_cast<unsigned>(h) + 1)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        pe = pp.pe;
        for (int h = 0; h + 1 < path_len; ++h) {
          pe = route_step(pe, dest);
          hops->push_back(RouteHop{
              value, pe, pp.finish + delay + static_cast<unsigned>(h) + 1});
        }
        return pp.finish + delay + static_cast<unsigned>(path_len);
      }
      CITL_CHECK_MSG(delay < 4096, "routing livelock");
    }
  }

  void place(NodeId v) {
    const Node& node = dfg_.node(v);
    const unsigned lat = arch_.latency.of(node.kind);
    const OpClass cls = op_class(node.kind);
    const auto vi = static_cast<std::size_t>(v);
    const NodeId* preds = pred_.data() + pred_offset_[vi];
    const NodeId* preds_end = pred_.data() + pred_offset_[vi + 1];

    unsigned best_start = ~0u;
    int best_idx = -1;
    best_hops_.clear();

    for (int idx = 0; idx < arch_.pe_count(); ++idx) {
      if (!arch_.pes[static_cast<std::size_t>(idx)].supports(cls)) continue;
      const PeId pe = arch_.pe_at(idx);
      // Every operand arrives no earlier than its producer's finish plus the
      // hop distance (a cached delivery is never earlier either), so a PE
      // whose bound already exceeds the best start cannot win: skip it
      // before planning any route.
      unsigned bound = 0;
      for (const NodeId* p = preds; p != preds_end; ++p) {
        const Placement& pp = placement_[static_cast<std::size_t>(*p)];
        bound = std::max(bound, pp.finish + static_cast<unsigned>(
                                                CgraArch::distance(pp.pe, pe)));
      }
      if (bound > best_start) continue;

      cand_hops_.clear();
      unsigned lb = 0;
      for (const NodeId* p = preds; p != preds_end; ++p) {
        lb = std::max(lb, plan_delivery(*p, pe, &cand_hops_));
      }
      unsigned t = lb;
      while (t <= best_start && !occ_.pe_free(idx, t, lat)) ++t;
      if (t < best_start ||
          (t == best_start && cand_hops_.size() < best_hops_.size())) {
        best_start = t;
        best_idx = idx;
        std::swap(best_hops_, cand_hops_);
      }
    }
    CITL_CHECK_MSG(best_start != ~0u, "no feasible PE for node");

    occ_.reserve_pe(best_idx, best_start, lat);
    for (const RouteHop& h : best_hops_) {
      occ_.reserve_route(arch_.index(h.pe), h.cycle);
      hops_.push_back(h);
    }
    for (const NodeId* p = preds; p != preds_end; ++p) {
      delivered(*p, best_idx) =
          std::max(placement_[static_cast<std::size_t>(*p)].finish,
                   best_start);  // conservative: value parked at input
    }
    placement_[vi] = Placement{arch_.pe_at(best_idx), best_start,
                               best_start + lat};
  }

  const Dfg& dfg_;
  const CgraArch& arch_;
  Occupancy occ_;
  std::vector<Placement> placement_;
  std::vector<RouteHop> hops_;
  std::vector<unsigned> delivered_;  ///< (value x PE index), see delivered()
  std::vector<std::size_t> pred_offset_;
  std::vector<NodeId> pred_;
  std::vector<RouteHop> cand_hops_;  ///< reused per candidate PE
  std::vector<RouteHop> best_hops_;
};

}  // namespace

Schedule schedule_dfg(const Dfg& dfg, const CgraArch& arch) {
  Schedule sched;
  {
    CITL_TRACE_SPAN("cgra.compile.list_schedule");
    ListScheduler s(dfg, arch);
    sched = s.run();
  }
  {
    CITL_TRACE_SPAN("cgra.compile.verify");
    verify_schedule(dfg, arch, sched);
  }
  return sched;
}

CompiledKernel compile_kernel(std::string_view source, const CgraArch& arch,
                              std::string name) {
  // Pass-level spans make the compiler's cost visible in a trace; the
  // histogram records what came out (the real-time budget driver, §IV-B).
  CITL_TRACE_SPAN("cgra.compile");
  CompiledKernel k;
  k.name = std::move(name);
  {
    CITL_TRACE_SPAN("cgra.compile.frontend");
    k.dfg = compile_to_dfg(source);
  }
  k.arch = arch;
  k.schedule = schedule_dfg(k.dfg, arch);
  // Registered once per process: the registry's handles are stable.
  static obs::Counter& compilations =
      obs::Registry::global().counter("cgra.compilations");
  static obs::Histogram& lengths = obs::Registry::global().histogram(
      "cgra.schedule_length_cycles",
      {16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0});
  compilations.add();
  lengths.observe(static_cast<double>(k.schedule.length));
  return k;
}

void verify_schedule(const Dfg& dfg, const CgraArch& arch,
                     const Schedule& schedule) {
  CITL_CHECK_MSG(schedule.placement.size() == dfg.size(),
                 "placement size mismatch");
  // (PE index, cycle) slots as sorted 64-bit keys: memory stays bounded by
  // the slots used, whatever cycles a loaded bitstream claims.
  auto slot_key = [&arch](PeId pe, unsigned cycle) {
    return (static_cast<std::uint64_t>(arch.index(pe)) << 32) | cycle;
  };
  // Capability + latency + PE exclusivity.
  std::vector<std::uint64_t> slots;
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(static_cast<NodeId>(i));
    const Placement& p = schedule.placement[i];
    CITL_CHECK_MSG(arch.caps(p.pe).supports(op_class(n.kind)),
                   "node placed on incapable PE");
    CITL_CHECK_MSG(p.finish == p.start + arch.latency.of(n.kind),
                   "placement latency mismatch");
    for (unsigned c = p.start; c < p.finish; ++c) {
      slots.push_back(slot_key(p.pe, c));
    }
  }
  std::sort(slots.begin(), slots.end());
  CITL_CHECK_MSG(std::adjacent_find(slots.begin(), slots.end()) == slots.end(),
                 "two ops overlap on one PE");
  // Precedence with routing distance for intra-iteration edges.
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Placement& pc = schedule.placement[i];
    dfg.for_each_intra_pred(static_cast<NodeId>(i), [&](NodeId pred) {
      const Placement& pp = schedule.placement[static_cast<std::size_t>(pred)];
      const int d = CgraArch::distance(pp.pe, pc.pe);
      CITL_CHECK_MSG(pc.start >= pp.finish + static_cast<unsigned>(d),
                     "operand not deliverable before consumer start");
    });
  }
  // Route-port limits.
  slots.clear();
  for (const RouteHop& h : schedule.hops) {
    (void)arch.caps(h.pe);  // range check
    slots.push_back(slot_key(h.pe, h.cycle));
  }
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 0; i < slots.size();) {
    std::size_t j = i + 1;
    while (j < slots.size() && slots[j] == slots[i]) ++j;
    CITL_CHECK_MSG(j - i <= arch.route_ports_per_pe,
                   "route port oversubscribed");
    i = j;
  }
  // Cross-iteration closure.
  auto check_cross = [&](NodeId producer, NodeId consumer) {
    const Placement& pp = schedule.placement[static_cast<std::size_t>(producer)];
    const Placement& pc = schedule.placement[static_cast<std::size_t>(consumer)];
    const int d = CgraArch::distance(pp.pe, pc.pe);
    CITL_CHECK_MSG(static_cast<long>(pc.start) + schedule.length >=
                       static_cast<long>(pp.finish) + d,
                   "cross-iteration edge does not close within II");
  };
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(static_cast<NodeId>(i));
    for (unsigned a = 0; a < n.arity(); ++a) {
      if (dfg.is_pipeline_edge(n.args[a], static_cast<NodeId>(i))) {
        check_cross(n.args[a], static_cast<NodeId>(i));
      }
    }
  }
  for (const auto& sv : dfg.states()) check_cross(sv.update, sv.node);
  // Makespan covers every op.
  for (const Placement& p : schedule.placement) {
    CITL_CHECK_MSG(p.finish <= schedule.length, "op finishes after makespan");
  }
}

ScheduleStats schedule_stats(const Dfg& dfg, const CgraArch& arch,
                             const Schedule& schedule) {
  ScheduleStats st;
  st.length = schedule.length;
  const auto crit = dfg.criticality(arch.latency);
  for (unsigned c : crit) st.critical_path = std::max(st.critical_path, c);
  st.cp_efficiency =
      st.length > 0 ? static_cast<double>(st.critical_path) / st.length : 0.0;

  std::vector<unsigned> busy(static_cast<std::size_t>(arch.pe_count()), 0);
  unsigned total_busy = 0;
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Placement& p = schedule.placement[i];
    const unsigned cycles = p.finish - p.start;
    busy[static_cast<std::size_t>(arch.index(p.pe))] += cycles;
    total_busy += cycles;
  }
  st.pe_utilisation =
      st.length > 0
          ? static_cast<double>(total_busy) /
                (static_cast<double>(arch.pe_count()) * st.length)
          : 0.0;
  for (int i = 0; i < arch.pe_count(); ++i) {
    if (busy[static_cast<std::size_t>(i)] > st.busiest_pe_cycles) {
      st.busiest_pe_cycles = busy[static_cast<std::size_t>(i)];
      st.busiest_pe = arch.pe_at(i);
    }
  }
  st.route_hops = schedule.hops.size();
  return st;
}

std::string CompiledKernel::dump_contexts() const {
  // Group operations and route hops per PE, ordered by cycle — this is the
  // content that would be loaded into each PE's context memory.
  struct Entry {
    unsigned cycle;
    std::string text;
  };
  std::vector<std::vector<Entry>> per_pe(
      static_cast<std::size_t>(arch.pe_count()));
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(static_cast<NodeId>(i));
    const Placement& p = schedule.placement[i];
    std::ostringstream os;
    os << op_name(n.kind) << " %" << i;
    for (unsigned a = 0; a < n.arity(); ++a) os << " %" << n.args[a];
    if (n.kind == OpKind::kConst) os << " = " << n.constant;
    if (!n.name.empty()) os << " [" << n.name << "]";
    per_pe[static_cast<std::size_t>(arch.index(p.pe))].push_back(
        {p.start, os.str()});
  }
  for (const RouteHop& h : schedule.hops) {
    per_pe[static_cast<std::size_t>(arch.index(h.pe))].push_back(
        {h.cycle, "route %" + std::to_string(h.value)});
  }
  std::ostringstream os;
  os << "schedule length: " << schedule.length << " ticks\n";
  for (int idx = 0; idx < arch.pe_count(); ++idx) {
    auto& entries = per_pe[static_cast<std::size_t>(idx)];
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.cycle < b.cycle; });
    const PeId pe = arch.pe_at(idx);
    os << "PE(" << pe.row << ',' << pe.col << "):\n";
    for (const auto& e : entries) {
      os << "  @" << e.cycle << "  " << e.text << '\n';
    }
  }
  return os.str();
}

}  // namespace citl::cgra

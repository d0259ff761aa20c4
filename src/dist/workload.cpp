#include "dist/workload.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "netlist/generators.h"
#include "obs/telemetry.h"
#include "stats/rng.h"

namespace statpipe::dist {

namespace {

// Registered at load rather than at the first build, so a process that
// never synthesizes a stage still reports 0.
const obs::Counter c_builds("dist.workload.builds");

struct StageRegistry {
  std::mutex mu;
  std::map<std::string, RegistryStage> stages;  ///< by canonical name
};

StageRegistry& stage_registry() {
  static StageRegistry r;
  return r;
}

// FNV-1a fold of the per-stage structural hashes: order-sensitive, so
// swapping two pipeline stages changes the workload identity.
std::uint64_t fold_stage_hash(std::uint64_t h, const RegistryStage& s) {
  return netlist::fnv1a_fold(h, s.hash);
}

void verify_hash(const RunDescriptor& desc, std::uint64_t h) {
  if (desc.netlist_hash != 0 && desc.netlist_hash != h)
    throw std::invalid_argument(
        "dist: workload '" + desc.workload + "' hash mismatch (descriptor " +
        std::to_string(desc.netlist_hash) + ", rebuilt " + std::to_string(h) +
        ") — coordinator and worker builds disagree on the netlist");
}

// build_grid_stage, keeping the stage's hash for finalize_descriptor.
RegistryStage grid_stage(const RunDescriptor& desc) {
  const auto names = split_workload_names(desc.workload);
  if (names.size() != 1)
    throw std::invalid_argument(
        "dist: ssta-grid workload must name exactly one circuit, got " +
        std::to_string(names.size()) + " ('" + desc.workload + "')");
  RegistryStage stage = registry_stage(names.front());  // throws on unknown
  const std::size_t gates = stage.netlist->size();
  if (desc.size_grid.empty())
    throw std::invalid_argument(
        "dist: ssta-grid descriptor with an empty size grid");
  for (std::size_t k = 0; k < desc.size_grid.size(); ++k)
    if (desc.size_grid[k].size() != gates)
      throw std::invalid_argument(
          "dist: size grid lane " + std::to_string(k) + " carries " +
          std::to_string(desc.size_grid[k].size()) + " sizes for a netlist "
          "of " + std::to_string(gates) +
          " gates (every lane must be a full size vector)");
  verify_hash(desc, fold_stage_hash(netlist::kFnvOffsetBasis, stage));
  return stage;
}

}  // namespace

RegistryStage registry_stage(const std::string& name) {
  // Throws on an unknown name before anything is inserted.
  const netlist::CircuitStats stats = netlist::iscas_stats(name);
  StageRegistry& r = stage_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.stages.find(stats.name);
  if (it == r.stages.end()) {
    auto nl = std::make_shared<netlist::Netlist>(
        netlist::synthesize_like(stats));  // iscas_like(name)
    // Netlist caches its topological order in a mutable member; fill it
    // now so no later const use writes to the shared object.
    (void)nl->topological_order();
    const std::uint64_t hash = nl->structural_hash();
    it = r.stages.emplace(stats.name, RegistryStage{std::move(nl), hash})
             .first;
    c_builds.add();
  }
  return it->second;
}

std::size_t registry_size() {
  StageRegistry& r = stage_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.stages.size();
}

std::vector<std::string> split_workload_names(const std::string& workload) {
  std::vector<std::string> names;
  std::string cur;
  for (char c : workload) {
    if (c == ',') {
      if (!cur.empty()) names.push_back(std::move(cur));
      cur.clear();
    } else if (c != ' ') {
      cur += c;
    }
  }
  if (!cur.empty()) names.push_back(std::move(cur));
  if (names.empty())
    throw std::invalid_argument("dist: empty workload name");
  return names;
}

process::Technology descriptor_technology(const RunDescriptor& d) {
  process::Technology tech;
  tech.vdd = d.tech_vdd;
  tech.vth0 = d.tech_vth0;
  tech.leff = d.tech_leff;
  tech.wmin = d.tech_wmin;
  tech.alpha = d.tech_alpha;
  tech.tau_ps = d.tech_tau_ps;
  tech.avt = d.tech_avt;
  return tech;
}

void set_descriptor_technology(RunDescriptor& d,
                               const process::Technology& tech) {
  d.tech_vdd = tech.vdd;
  d.tech_vth0 = tech.vth0;
  d.tech_leff = tech.leff;
  d.tech_wmin = tech.wmin;
  d.tech_alpha = tech.alpha;
  d.tech_tau_ps = tech.tau_ps;
  d.tech_avt = tech.avt;
}

process::VariationSpec descriptor_spec(const RunDescriptor& d) {
  process::VariationSpec spec;
  spec.sigma_vth_inter = d.sigma_vth_inter;
  spec.sigma_vth_systematic = d.sigma_vth_systematic;
  spec.correlation_length = d.correlation_length;
  spec.enable_rdf = d.enable_rdf != 0;
  spec.sigma_l_inter_rel = d.sigma_l_inter_rel;
  spec.sigma_l_systematic_rel = d.sigma_l_systematic_rel;
  return spec;
}

void set_descriptor_spec(RunDescriptor& d, const process::VariationSpec& s) {
  d.sigma_vth_inter = s.sigma_vth_inter;
  d.sigma_vth_systematic = s.sigma_vth_systematic;
  d.correlation_length = s.correlation_length;
  d.enable_rdf = s.enable_rdf ? 1 : 0;
  d.sigma_l_inter_rel = s.sigma_l_inter_rel;
  d.sigma_l_systematic_rel = s.sigma_l_systematic_rel;
}

std::unique_ptr<Workload> Workload::make(const RunDescriptor& desc) {
  std::unique_ptr<Workload> w(new Workload());
  // Registry stages live as long as the process; the engine reads them
  // only while it is constructed.
  std::vector<const netlist::Netlist*> views;
  w->hash_ = netlist::kFnvOffsetBasis;
  for (const std::string& name : split_workload_names(desc.workload)) {
    const RegistryStage s = registry_stage(name);  // throws on unknown
    views.push_back(s.netlist.get());
    w->hash_ = fold_stage_hash(w->hash_, s);
  }
  verify_hash(desc, w->hash_);
  w->model_ =
      std::make_unique<device::AlphaPowerModel>(descriptor_technology(desc));
  device::LatchTiming timing;
  timing.tcq_ps = desc.latch_tcq_ps;
  timing.tsetup_ps = desc.latch_tsetup_ps;
  timing.random_sigma_rel = desc.latch_random_sigma_rel;
  w->latch_ = std::make_unique<device::LatchModel>(timing, *w->model_);
  sta::StaOptions sta_opt;
  sta_opt.output_load = desc.output_load;
  w->engine_ = std::make_unique<mc::GateLevelMonteCarlo>(
      std::move(views), *w->model_, descriptor_spec(desc), *w->latch_,
      sta_opt);
  return w;
}

const netlist::Netlist& build_grid_stage(const RunDescriptor& desc) {
  return *grid_stage(desc).netlist;  // the registry keeps it alive
}

sim::ExecutionOptions Workload::exec(const RunDescriptor& desc) const {
  sim::ExecutionOptions e;
  e.samples_per_shard = desc.samples_per_shard;
  e.block_width = desc.block_width;
  e.threads = 0;  // local pool's width; invisible in the result
  return e;
}

void finalize_descriptor(RunDescriptor& desc) {
  if (desc.task_kind == TaskKind::kSstaGrid) {
    desc.netlist_hash =
        fold_stage_hash(netlist::kFnvOffsetBasis, grid_stage(desc));
    desc.root_seed = derive_root_seed(desc.seed);
    return;
  }
  if (desc.n_samples == 0)
    throw std::invalid_argument("dist: descriptor with zero samples");
  const std::unique_ptr<Workload> w = Workload::make(desc);
  desc.netlist_hash = w->stage_hash();
  desc.root_seed = derive_root_seed(desc.seed);
}

mc::McResult run_local(const RunDescriptor& desc) {
  const std::unique_ptr<Workload> w = Workload::make(desc);
  stats::Rng rng(desc.seed);
  return w->engine().run(desc.n_samples, rng, w->exec(desc));
}

}  // namespace statpipe::dist

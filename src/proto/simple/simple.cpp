#include "proto/simple/simple.hpp"

#include "core/registry.hpp"
#include "proto/simple/parallel_rw.hpp"

namespace snowkit {

namespace detail {

std::unique_ptr<ProtocolSystem> build_parallel(
    std::string name, Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg,
    const std::function<std::unique_ptr<Node>()>& make_server) {
  cfg.validate();
  const Placement place(cfg);
  rec.attach_runtime(&rt);
  for (std::size_t i = 0; i < place.num_servers(); ++i) {
    const NodeId id = rt.add_node(make_server());
    SNOW_CHECK(id == i);
  }
  auto readers = add_clients<ReadClientApi>(
      rt, cfg.num_readers, [&] { return std::make_unique<ParallelReader>(rec, place); });
  auto writers = add_clients<WriteClientApi>(
      rt, cfg.num_writers, [&] { return std::make_unique<ParallelWriter>(rec, place); });
  return std::make_unique<ProtocolSystem>(std::move(name), cfg, rt, readers, writers);
}

}  // namespace detail

namespace {

const ProtocolRegistration kRegisterSimple{
    ProtocolTraits{
        .name = "simple",
        .summary = "non-transactional parallel reads/writes: the latency floor",
        .claims_strict_serializability = false,
        .provides_tags = false,
        .snow_s = false,
        .snow_n = true,
        .snow_o = true,
        .snow_w = false,  // writes are not transactions; no isolation claimed
        .mwmr = true,
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions&) {
      return build_simple(rt, rec, cfg);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_simple(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg) {
  return detail::build_parallel("simple", rt, rec, cfg);
}

}  // namespace snowkit

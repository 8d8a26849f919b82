#include "proto/coor_system.hpp"

#include <stdexcept>

#include "common/assert.hpp"
#include "core/registry.hpp"

namespace snowkit {

void CoorOptions::parse(const BuildOptions& opts) {
  coordinator = static_cast<std::size_t>(
      opts.get_int("coordinator", static_cast<std::int64_t>(coordinator)));
  gc_versions = opts.get_bool("gc_versions", gc_versions);
  replicas =
      static_cast<std::size_t>(opts.get_int("replicas", static_cast<std::int64_t>(replicas)));
  wal_dir = opts.get("wal_dir", wal_dir);
  unsafe_ack = opts.get_bool("unsafe_ack", unsafe_ack);
}

CoorNodes add_coor_nodes(Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg,
                         const CoorOptions& opts, TagArrShape shape,
                         const ReaderFactory& make_reader, const ModeTrackerConfig& modes) {
  cfg.validate();
  const Placement place(cfg);
  const std::size_t servers = place.num_servers();
  if (opts.coordinator >= servers) {
    throw std::invalid_argument("coordinator shard " + std::to_string(opts.coordinator) +
                                " out of range (servers = " + std::to_string(servers) + ")");
  }
  if (opts.replicas != 1 && opts.replicas != 2) {
    throw std::invalid_argument(opts.name + " supports replicas 1 or 2, got " +
                                std::to_string(opts.replicas));
  }
  rec.attach_runtime(&rt);
  const bool repl = opts.replicas == 2;
  const NodeId base = static_cast<NodeId>(servers + cfg.num_readers + cfg.num_writers);
  std::vector<NodeId> clients;
  for (std::size_t i = 0; i < cfg.num_readers + cfg.num_writers; ++i) {
    clients.push_back(static_cast<NodeId>(servers + i));
  }

  CoorNodes nodes;
  // Adds shard s's primary (node s) or backup (node base + s).
  const auto add_server = [&](std::size_t s, bool primary) {
    const NodeId self = primary ? static_cast<NodeId>(s) : static_cast<NodeId>(base + s);
    const SnowServerConfig server_cfg{cfg.num_objects, s == opts.coordinator, opts.gc_versions,
                                      shape, modes};
    std::unique_ptr<SnowServer> node;
    if (repl) {
      Replicator::Config c;
      c.shard = s;
      c.self = self;
      c.peer = primary ? static_cast<NodeId>(base + s) : static_cast<NodeId>(s);
      c.start_primary = primary;
      c.has_list = s == opts.coordinator;
      c.num_objects = cfg.num_objects;
      c.notify = clients;
      c.unsafe_ack = opts.unsafe_ack;
      std::unique_ptr<WalStorage> wal;
      if (opts.wal_dir.empty()) {
        wal = std::make_unique<MemWal>();
      } else {
        wal = std::make_unique<FileWal>(opts.wal_dir + "/node-" + std::to_string(self) + ".wal");
      }
      node = std::make_unique<SnowServer>(server_cfg, std::move(c), std::move(wal));
    } else {
      node = std::make_unique<SnowServer>(server_cfg);
    }
    if (s == opts.coordinator) nodes.coordinators.push_back(node.get());
    const NodeId id = rt.add_node(std::move(node));
    SNOW_CHECK(id == self);
  };

  for (std::size_t s = 0; s < servers; ++s) add_server(s, /*primary=*/true);
  nodes.readers = add_clients<ReadClientApi>(rt, cfg.num_readers,
                                             [&] { return make_reader(place, repl); });
  nodes.writers = add_clients<WriteClientApi>(rt, cfg.num_writers, [&] {
    return std::make_unique<CoorWriter>(rec, place, opts.coordinator,
                                        /*send_finalize=*/opts.gc_versions, repl);
  });
  if (repl) {
    for (std::size_t s = 0; s < servers; ++s) add_server(s, /*primary=*/false);
  }
  return nodes;
}

std::unique_ptr<ProtocolSystem> build_coor_system(Runtime& rt, HistoryRecorder& rec,
                                                  const SystemConfig& cfg,
                                                  const CoorOptions& opts, TagArrShape shape,
                                                  const ReaderFactory& make_reader) {
  CoorNodes nodes = add_coor_nodes(rt, rec, cfg, opts, shape, make_reader);
  return std::make_unique<ProtocolSystem>(opts.name, cfg, rt, nodes.readers, nodes.writers);
}

}  // namespace snowkit

// Algorithm B (paper §8, Pseudocodes 5 and 6): SNW + one-version READ
// transactions in the multi-writer multi-reader (MWMR) setting, with no
// client-to-client communication.  READs take exactly two rounds:
//
//   get-tag-array: reader -> coordinator s*, which returns (t_r, kappa_1..k)
//                  — the newest key per object in the coordinator's List;
//   read-value:    reader -> each object's server with the exact key kappa_i;
//                  servers respond non-blocking with exactly one version.
//
// WRITEs do write-value to the servers then update-coor to s* (which assigns
// the List position = the Lemma-20 tag).  Theorem 4: every fair well-formed
// execution is strictly serializable, non-blocking, one-version.
//
// Objects route to servers through the SystemConfig's Placement, so several
// objects may share a server; each carries its own Vals store.
#pragma once

#include <cstddef>
#include <memory>

#include "proto/coor_system.hpp"

namespace snowkit {

/// The shared coordinator options (proto/coor_system.hpp).  With GC on
/// (the default) READs still see exactly one version.
struct AlgoBOptions : CoorOptions {
  AlgoBOptions() { name = "algo-b"; }
};

std::unique_ptr<ProtocolSystem> build_algo_b(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoBOptions opts = {});

}  // namespace snowkit

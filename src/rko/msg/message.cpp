#include "rko/msg/message.hpp"

namespace rko::msg {

const char* msg_type_name(MsgType type) {
    switch (type) {
    case MsgType::kPing: return "ping";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kRemoteClone: return "remote_clone";
    case MsgType::kMigrate: return "migrate";
    case MsgType::kMigrateBack: return "migrate_back";
    case MsgType::kTaskExit: return "task_exit";
    case MsgType::kGroupUpdate: return "group_update";
    case MsgType::kGroupExit: return "group_exit";
    case MsgType::kVmaOp: return "vma_op";
    case MsgType::kVmaFetch: return "vma_fetch";
    case MsgType::kVmaUpdate: return "vma_update";
    case MsgType::kPageFault: return "page_fault";
    case MsgType::kPageFetch: return "page_fetch";
    case MsgType::kPageInvalidate: return "page_invalidate";
    case MsgType::kPageInstalled: return "page_installed";
    case MsgType::kFutexWait: return "futex_wait";
    case MsgType::kFutexWake: return "futex_wake";
    case MsgType::kFutexGrant: return "futex_grant";
    case MsgType::kFutexCancel: return "futex_cancel";
    case MsgType::kFutexGrantBatch: return "futex_grant_batch";
    case MsgType::kFutexDeregister: return "futex_deregister";
    case MsgType::kTaskCensus: return "task_census";
    case MsgType::kLoadReport: return "load_report";
    case MsgType::kLoadGossip: return "load_gossip";
    case MsgType::kSteal: return "steal";
    case MsgType::kPageInvalidateRange: return "page_invalidate_range";
    case MsgType::kPageFaultBatch: return "page_fault_batch";
    case MsgType::kPagePush: return "page_push";
    case MsgType::kMembershipUpdate: return "membership_update";
    case MsgType::kElasticEvict: return "elastic_evict";
    case MsgType::kHomeRangeOp: return "home_range_op";
    case MsgType::kHomeRebuild: return "home_rebuild";
    case MsgType::kWorksetPull: return "workset_pull";
    case MsgType::kWorksetPush: return "workset_push";
    case MsgType::kPageSurrender: return "page_surrender";
    case MsgType::kCount: break;
    }
    return "unknown";
}

} // namespace rko::msg

#include "appsys/dispatch/app_server_instance.h"

#include <utility>

namespace r3 {
namespace appsys {
namespace dispatch {

AppServerInstance::AppServerInstance(rdbms::Database* db, DataDictionary* dict,
                                     rdbms::SessionPool* sessions,
                                     InstanceOptions options)
    : db_(db), dict_(dict), sessions_(sessions), options_(std::move(options)) {
  buffer_ = std::make_unique<TableBuffer>(
      db_->clock(), options_.table_buffer_bytes, db_->metrics());
  for (const std::string& t : options_.buffered_tables) {
    buffer_->EnableFor(t);
  }
  monitor_ = std::make_unique<WorkloadMonitor>(db_->clock());
  dispatcher_ =
      std::make_unique<Dispatcher>(db_->metrics(), options_.dispatcher);
}

Status AppServerInstance::Start() {
  struct PoolSpec {
    WpClass wp_class;
    int count;
  };
  const PoolSpec pools[] = {
      {WpClass::kDialog, options_.dialog_wps},
      {WpClass::kBatch, options_.batch_wps},
      {WpClass::kUpdate, options_.update_wps},
  };
  int32_t next_id = 0;
  for (const PoolSpec& p : pools) {
    for (int i = 0; i < p.count; ++i) {
      WorkProcess wp;
      wp.id = next_id++;
      wp.wp_class = p.wp_class;
      auto lease = sessions_->Acquire();
      R3_RETURN_IF_ERROR(lease.status());
      wp.session = std::move(lease).value();
      wp.conn = std::make_unique<DbConnection>(db_, db_->clock());
      wp.conn->set_workload_monitor(monitor_.get());
      if (options_.st05) {
        wp.trace = std::make_unique<SqlTrace>();
        wp.conn->set_sql_trace(wp.trace.get());
      }
      dispatcher_->AddWorkProcess(std::move(wp));
    }
  }
  return Status::OK();
}

OpenSql* AppServerInstance::OpenSqlFor(WorkProcess* wp,
                                       const std::string& client) {
  auto it = wp->open_sql_by_client.find(client);
  if (it == wp->open_sql_by_client.end()) {
    it = wp->open_sql_by_client
             .emplace(client, std::make_unique<OpenSql>(
                                  dict_, wp->conn.get(), buffer_.get(),
                                  db_->clock(), options_.release, client))
             .first;
  }
  return it->second.get();
}

void AppServerInstance::EnsureProgramLoaded(const std::string& tcode) {
  if (!loaded_programs_.insert(tcode).second) return;
  // A cold program load is real work on the app server: charge the clock
  // (it is part of the step's service time) and book it as ST03 load time
  // so the decomposition shows it, exactly like the real monitor.
  int64_t load_us = db_->clock()->model().program_load_us;
  db_->clock()->Charge(load_us);
  monitor_->AddLoadTime(load_us);
}

}  // namespace dispatch
}  // namespace appsys
}  // namespace r3

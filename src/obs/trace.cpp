#include "obs/trace.h"

#include "common/json.h"

namespace themis::obs {

bool EventTracer::open(const std::string& path) {
  file_.open(path, std::ios::out | std::ios::trunc);
  if (!file_) return false;
  sink_ = &file_;
  enabled_ = true;
  return true;
}

bool EventTracer::close() {
  if (!file_.is_open()) return true;
  enabled_ = false;
  sink_ = nullptr;
  file_.close();
  return !file_.fail();
}

void EventTracer::emit(SimTime t, std::string_view ev,
                       std::initializer_list<Field> fields) {
  if (!enabled_) return;
  ++count_;
  if (sink_ == nullptr) return;
  std::string& line = line_;
  line.clear();
  line += "{\"t_ns\":";
  line += std::to_string(t.count_nanos());
  line += ",\"ev\":";
  append_json_string(line, ev);
  for (const Field& field : fields) {
    line += ',';
    append_json_string(line, field.key);
    line += ':';
    switch (field.type) {
      case Field::Type::kU64:
        line += std::to_string(field.u);
        break;
      case Field::Type::kI64:
        line += std::to_string(field.i);
        break;
      case Field::Type::kF64:
        append_json_number(line, field.f);
        break;
      case Field::Type::kBool:
        line += field.b ? "true" : "false";
        break;
      case Field::Type::kStr:
        append_json_string(line, field.s);
        break;
    }
  }
  line += "}\n";
  sink_->write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace themis::obs

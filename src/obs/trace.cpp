#include "obs/trace.h"

#include <fstream>

#include "common/json.h"

namespace themis::obs {

void EventTracer::emit(SimTime t, std::string_view ev,
                       std::initializer_list<Field> fields) {
  if (!enabled_) return;
  std::string line;
  line.reserve(64 + 24 * fields.size());
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
  line += '}';
  lines_.push_back(std::move(line));
}

void EventTracer::write_jsonl(std::ostream& out) const {
  for (const std::string& line : lines_) out << line << '\n';
}

bool EventTracer::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return static_cast<bool>(out);
}

}  // namespace themis::obs

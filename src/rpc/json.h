// Forwarding header: the JSON codec is common/json.h (namespace themis).
// It remains only because perfbench/, which builds against this tree's
// libraries from its own sources, names the codec rpc::Json through it;
// every other user includes common/json.h.
#pragma once

#include "common/json.h"

namespace themis::rpc {

using Json = themis::Json;
using JsonError = themis::JsonError;

}  // namespace themis::rpc

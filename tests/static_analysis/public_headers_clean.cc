// PASS control: every annotated public header must parse warning-clean
// under the analysis, inline bodies included. This is the same surface
// the static-analysis CI job builds, distilled to a syntax-only check so
// the suite catches annotation regressions without a full build.

#include "client/client.h"
#include "core/spatial_index.h"
#include "server/server.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "zdb/db.h"

int main() { return 0; }

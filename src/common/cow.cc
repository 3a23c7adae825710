#include "common/cow.h"

#include "obs/obs.h"

namespace tyder::cow_internal {

void CountTableClone() { TYDER_COUNT("schema.table_clones"); }

}  // namespace tyder::cow_internal

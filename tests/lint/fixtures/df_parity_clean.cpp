// Reading df state through the parity accessors must pass
// lbmib-df-parity everywhere in the tree.
//
// CHECK: lbmib-df-parity
// EXPECT-CLEAN

double* present_base(lbmib::CubeGrid& grid) {
  return grid.data() + grid.df_slot_base();
}

double* next_base(lbmib::CubeGrid& grid) {
  return grid.data() + grid.df_new_slot_base();
}

unsigned captured_parity_base(bool parity) {
  return lbmib::CubeGrid::df_base_for(parity);
}

type kind =
  | Mmu_update
  | Mmuext_op
  | Update_va_mapping
  | Set_trap_table
  | Sched_op
  | Event_channel_op
  | Grant_table_op
  | Iret
  | Set_segment_base
  | Console_io
  | Domctl

let all =
  [
    Mmu_update;
    Mmuext_op;
    Update_va_mapping;
    Set_trap_table;
    Sched_op;
    Event_channel_op;
    Grant_table_op;
    Iret;
    Set_segment_base;
    Console_io;
    Domctl;
  ]

let surface_size () = List.length all

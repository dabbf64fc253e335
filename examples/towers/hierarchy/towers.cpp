// hiergen -family giant: |N|=40 |E|=48 (|Ev|=6) |M|=40 decls=130 roots=4 leaves=4 maxBases=3 depth=24
struct I0 {
	void m0();
	void m1();
	void m2();
	void m3();
	void m4();
	void m5();
	void m6();
	void m7();
	void m8();
	void m9();
	void m10();
	void m11();
	void m12();
	void m13();
	void m14();
	void m15();
	void m16();
	void m17();
	void m18();
	void m19();
	void m20();
	void m21();
	void m22();
	void m23();
};
struct I1 {
	void m12();
	void m13();
	void m14();
	void m15();
	void m16();
	void m17();
	void m18();
	void m19();
	void m20();
	void m21();
	void m22();
	void m23();
	void m24();
	void m25();
	void m26();
	void m27();
	void m28();
	void m29();
	void m30();
	void m31();
	void m32();
	void m33();
	void m34();
	void m35();
};
struct I2 {
	void m24();
	void m25();
	void m26();
	void m27();
	void m28();
	void m29();
	void m30();
	void m31();
	void m32();
	void m33();
	void m34();
	void m35();
	void m36();
	void m37();
	void m38();
	void m39();
	void m0();
	void m1();
	void m2();
	void m3();
	void m4();
	void m5();
	void m6();
	void m7();
};
struct I3 {
	void m36();
	void m37();
	void m38();
	void m39();
	void m0();
	void m1();
	void m2();
	void m3();
	void m4();
	void m5();
	void m6();
	void m7();
	void m8();
	void m9();
	void m10();
	void m11();
	void m12();
	void m13();
	void m14();
	void m15();
	void m16();
	void m17();
	void m18();
	void m19();
};
struct T0_X0 : virtual I2 {
	void m15();
	void m0();
};
struct T0_Y0 : virtual I2 {
	void m2();
	void m0();
};
struct T0_L0 : T0_X0, T0_Y0 {
	void m7();
};
struct T0_X1 : T0_L0 {};
struct T0_Y1 : T0_L0 {
	void m1();
	void m15();
	void m32();
};
struct T0_L1 : T0_X1, T0_Y1 {
	void m0();
};
struct T0_X2 : T0_L1 {};
struct T0_Y2 : T0_L1 {};
struct T0_L2 : T0_X2, T0_Y2 {
	void m0();
};
struct T0_X3 : T0_L2 {
	void m0();
	void m3();
};
struct T0_Y3 : T0_L2 {};
struct T0_L3 : T0_X3, T0_Y3, virtual I0 {};
struct T0_X4 : T0_L3 {
	void m2();
};
struct T0_Y4 : T0_L3 {
	static void m0();
};
struct T0_L4 : T0_X4, T0_Y4 {};
struct T0_X5 : T0_L4 {};
struct T0_Y5 : T0_L4 {};
struct T1_X0 : T0_X5 {
	void m0();
};
struct T1_Y0 : T0_X5 {};
struct T0_L5 : T0_X5, T0_Y5, virtual I0 {
	void m0();
	static void m6();
};
struct T1_L0 : T1_X0, T1_Y0, virtual I2 {};
struct T0_C0 : T0_L5 {
	void m1();
	void m24();
};
struct T1_X1 : T1_L0 {};
struct T1_Y1 : T1_L0 {};
struct T0_C1 : T0_C0 {};
struct T1_L1 : T1_X1, T1_Y1, virtual I0 {};
struct T0_C2 : T0_C1 {
	void m23();
	void m3();
};
struct T0_C3 : T0_C2 {
	void m2();
	void m0();
};
struct T0_C4 : T0_C3 {};
struct T0_C5 : T0_C4 {
	void m2();
	void m0();
};
struct T0_C6 : T0_C5 {};
struct T0_C7 : T0_C6 {
	void m0();
};
struct T0_C8 : T0_C7 {
	void m0();
};
struct T0_C9 : T0_C8 {
	void m39();
	void m7();
	void m6();
};
struct T0_C10 : T0_C9 {
	void m0();
	void m1();
};
struct T0_C11 : T0_C10 {
	void m18();
	void m0();
};

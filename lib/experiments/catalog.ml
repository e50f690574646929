let all =
  [
    ("fig1", Fig1.print);
    ("fig2", Fig2.print);
    ("table1", Table1.print);
    ("table2", Table2.print);
    ("fig3", Fig3.print);
    ("fig4", Fig4.print);
    ("local", Local_analysis.print);
    ("zhu-check", Zhu_check.print);
    ("temperature", Temperature_exp.print);
    ("optknock", Optknock.print);
    ("control", Enzyme_control.print);
    ("ablate-migration", Ablate.migration);
    ("ablate-algorithms", Ablate.algorithms);
    ("ablate-operators", Ablate.operators);
    ("ablate-penalty", Ablate.penalty);
  ]
